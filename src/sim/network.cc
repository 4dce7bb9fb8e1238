#include "sim/network.h"

#include <algorithm>

#include "sim/checkpoint.h"
#include "util/walltime.h"

namespace spineless::sim {

// Switch device: forwards by ECMP or VRF tables; local rack traffic goes to
// the host port.
class Network::SwitchDev : public Device {
 public:
  void init(Network* net, NodeId id, int slot) {
    net_ = net;
    id_ = id;
    slot_ = slot;
  }
  void receive(Simulator& sim, PacketNode* node) override {
    net_->forward_at_switch(sim, id_, slot_, node);
  }

 private:
  Network* net_ = nullptr;
  NodeId id_ = 0;
  int slot_ = 0;
};

// Host device: hands arriving packets to the flow endpoint.
class Network::HostDev : public Device {
 public:
  void init(Network* net, int slot) {
    net_ = net;
    slot_ = slot;
  }
  void receive(Simulator& sim, PacketNode* node) override {
    net_->deliver(sim, slot_, node->pkt);
    net_->pools_[static_cast<std::size_t>(slot_)]->release(node);
  }

 private:
  Network* net_ = nullptr;
  int slot_ = 0;
};

Network::Network(const Graph& g, const NetworkConfig& cfg)
    : graph_(g), cfg_(cfg) {
  num_shards_ = std::clamp(cfg_.intra_jobs, 1,
                           static_cast<int>(g.num_switches()));
  cfg_.intra_jobs = num_shards_;
  // Block partition: shard s owns switches [s*S/K .. (s+1)*S/K). DRing and
  // leaf-spine builders number nodes so that blocks are topology-adjacent
  // (ring arcs, pod groups), which keeps most hops intra-shard.
  switch_shard_.resize(static_cast<std::size_t>(g.num_switches()));
  for (NodeId n = 0; n < g.num_switches(); ++n) {
    switch_shard_[static_cast<std::size_t>(n)] = static_cast<std::int32_t>(
        (static_cast<std::int64_t>(n) * num_shards_) / g.num_switches());
  }
  const int table_jobs =
      cfg_.table_jobs > 0 ? cfg_.table_jobs : num_shards_;
  if (table_jobs > 1)
    table_runner_ = std::make_unique<util::Runner>(
        table_jobs, util::Runner::Nested::kAllow);
  shard_stats_.resize(static_cast<std::size_t>(num_shards_));
  pools_.reserve(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s)
    pools_.push_back(std::make_unique<PacketPool>());

  rebuild_tables(nullptr);
  if (cfg_.host_rate_bps == 0) cfg_.host_rate_bps = cfg_.link_rate_bps;

  // Everything below consumes oids in a fixed construction order — the
  // same order every run, serial or sharded, so priorities (and therefore
  // event execution order) are identical for any intra_jobs.
  switches_ =
      std::make_unique<SwitchDev[]>(static_cast<std::size_t>(g.num_switches()));
  for (NodeId n = 0; n < g.num_switches(); ++n) {
    SwitchDev& dev = switches_[static_cast<std::size_t>(n)];
    dev.init(this, n, shard_of_switch(n));
    dev.set_event_identity(next_oid(), shard_of_switch(n));
  }
  if (cfg_.flowlet_gap > 0)
    flowlets_.resize(static_cast<std::size_t>(g.num_switches()));
  hosts_ =
      std::make_unique<HostDev[]>(static_cast<std::size_t>(g.total_servers()));
  for (HostId h = 0; h < g.total_servers(); ++h) {
    HostDev& dev = hosts_[static_cast<std::size_t>(h)];
    dev.init(this, shard_of_host(h));
    dev.set_event_identity(next_oid(), shard_of_host(h));
  }

  // A link belongs to the shard of its *transmitting* node: every event it
  // sinks (serialization completions) is scheduled from that shard, so it
  // stays kShardLocal. Its pool is the transmitter's — enqueue-side
  // allocs/releases then never cross shards; only delivered packets do.
  auto add_link = [&](std::vector<Link>& vec, std::int64_t rate, NodeId tx,
                      Device* peer) {
    vec.emplace_back(rate, cfg_.link_delay, cfg_.queue_bytes, peer,
                     pools_[static_cast<std::size_t>(shard_of_switch(tx))].get(),
                     cfg_.ecn_threshold_bytes);
    vec.back().set_event_identity(next_oid(), EventSink::kShardLocal);
  };
  net_links_.reserve(2 * static_cast<std::size_t>(g.num_links()));
  for (topo::LinkId l = 0; l < g.num_links(); ++l) {
    const topo::Link& link = g.link(l);
    add_link(net_links_, cfg_.link_rate_bps, link.a,
             &switches_[static_cast<std::size_t>(link.b)]);
    add_link(net_links_, cfg_.link_rate_bps, link.b,
             &switches_[static_cast<std::size_t>(link.a)]);
  }
  host_up_.reserve(static_cast<std::size_t>(g.total_servers()));
  host_down_.reserve(static_cast<std::size_t>(g.total_servers()));
  for (HostId h = 0; h < g.total_servers(); ++h) {
    const NodeId tor = g.tor_of_host(h);
    add_link(host_up_, cfg_.host_rate_bps, tor,
             &switches_[static_cast<std::size_t>(tor)]);
    add_link(host_down_, cfg_.host_rate_bps, tor,
             &hosts_[static_cast<std::size_t>(h)]);
  }
}

// Fires the two phases of a scheduled failure: physical down, then the
// reconverged tables landing in the FIBs.
class Network::FailureEvent : public EventSink {
 public:
  FailureEvent(Network& net, topo::LinkId link) : net_(net), link_(link) {}
  void on_event(Simulator&, std::uint64_t ctx) override {
    if (ctx == 0) {
      net_.take_link_down(link_);
    } else {
      net_.reconverge_tables();
    }
  }

 private:
  Network& net_;
  topo::LinkId link_;
};

Network::~Network() = default;

void Network::take_link_down(topo::LinkId link) {
  set_link_phys(link, /*up=*/false);
  set_link_routed_out(link, /*out=*/true);
}

void Network::bring_link_up(topo::LinkId link) {
  set_link_phys(link, /*up=*/true);
  set_link_routed_out(link, /*out=*/false);
}

void Network::set_link_phys(topo::LinkId link, bool up) {
  net_links_[2 * static_cast<std::size_t>(link)].set_down(!up);
  net_links_[2 * static_cast<std::size_t>(link) + 1].set_down(!up);
}

void Network::set_link_gray(topo::LinkId link, double drop_prob,
                            double corrupt_prob, std::uint64_t seed) {
  // Mix the direction in so the two streams are independent but both pure
  // functions of (plan seed, link).
  net_links_[2 * static_cast<std::size_t>(link)].set_gray(
      drop_prob, corrupt_prob, splitmix64(seed));
  net_links_[2 * static_cast<std::size_t>(link) + 1].set_gray(
      drop_prob, corrupt_prob, splitmix64(seed ^ 0x9e3779b97f4a7c15ULL));
}

void Network::clear_link_gray(topo::LinkId link) {
  net_links_[2 * static_cast<std::size_t>(link)].clear_gray();
  net_links_[2 * static_cast<std::size_t>(link) + 1].clear_gray();
}

void Network::set_link_rate_factor(topo::LinkId link, double factor) {
  net_links_[2 * static_cast<std::size_t>(link)].set_rate_factor(factor);
  net_links_[2 * static_cast<std::size_t>(link) + 1].set_rate_factor(factor);
}

void Network::set_link_routed_out(topo::LinkId link, bool out) {
  if (out) {
    down_links_.insert(link);
  } else {
    down_links_.erase(link);
  }
  pending_repair_.push_back(link);
}

void Network::send_hello(Simulator& sim, topo::LinkId link, int dir) {
  Packet pkt;
  pkt.flow_id = kCtrlFlowId;
  pkt.size_bytes = kHelloPacketBytes;
  pkt.seq = 2 * static_cast<std::int64_t>(link) + dir;
  const topo::Link& l = graph_.link(link);
  pkt.dst_tor = dir == 0 ? l.b : l.a;
  net_links_[2 * static_cast<std::size_t>(link) + dir].enqueue(sim, pkt);
}

// Only the table the active mode forwards with is computed; the other
// would be dead weight per construction and per reconvergence. Wall time
// is accumulated into table_build_s_ (BENCH_*.json's table_build_s), and
// destinations fan over table_runner_ when the network is sharded.
void Network::rebuild_tables(const routing::LinkSet* dead) {
  const double start = util::monotonic_seconds();
  if (cfg_.mode == RoutingMode::kEcmp) {
    ecmp_ = std::make_unique<routing::EcmpTable>(
        routing::EcmpTable::compute(graph_, dead, table_runner_.get()));
    if (dead != nullptr && cfg_.validate_tables)
      SPINELESS_CHECK_MSG(routing::ecmp_table_valid(graph_, *ecmp_, dead),
                          "reconverged ECMP table failed validation");
  } else if (cfg_.mode == RoutingMode::kShortestUnion) {
    vrf_ = std::make_unique<routing::VrfTable>(
        routing::VrfTable::compute(graph_, cfg_.su_k, dead,
                                   table_runner_.get()));
  }
  installed_dead_ = dead != nullptr ? *dead : routing::LinkSet{};
  pending_repair_.clear();
  table_build_s_ += util::monotonic_seconds() - start;
}

void Network::reconverge_tables() { rebuild_tables(&down_links_); }

void Network::repair_tables() {
  // Links whose routed-out state actually differs from what the installed
  // tables were built against (a flap that went down and up between
  // repairs is a no-op).
  std::sort(pending_repair_.begin(), pending_repair_.end());
  pending_repair_.erase(
      std::unique(pending_repair_.begin(), pending_repair_.end()),
      pending_repair_.end());
  std::vector<std::pair<topo::LinkId, bool>> changed;
  for (const topo::LinkId l : pending_repair_) {
    const bool now_dead = down_links_.contains(l);
    if (now_dead != installed_dead_.contains(l)) changed.emplace_back(l, now_dead);
  }
  pending_repair_.clear();
  if (changed.empty()) {
    installed_dead_ = down_links_;
    return;
  }
  const double start = util::monotonic_seconds();
  const auto n = static_cast<std::size_t>(graph_.num_switches());
  std::vector<char> mark(n, 0);
  std::vector<NodeId> dsts;
  for (const auto& [l, now_dead] : changed) {
    std::vector<NodeId> aff;
    if (ecmp_ != nullptr) {
      aff = ecmp_->destinations_affected_by(graph_, l, now_dead);
    } else if (vrf_ != nullptr) {
      aff = vrf_->destinations_affected_by(graph_, l, now_dead);
    }
    for (const NodeId d : aff) {
      if (!mark[static_cast<std::size_t>(d)]) {
        mark[static_cast<std::size_t>(d)] = 1;
        dsts.push_back(d);
      }
    }
  }
  std::sort(dsts.begin(), dsts.end());
  if (2 * dsts.size() >= n) {
    // Most of the table changes anyway — the full rebuild's tighter loops
    // win (it also resets installed_dead_ and the wall-time accounting).
    rebuild_tables(&down_links_);
    return;
  }
  if (ecmp_ != nullptr) {
    ecmp_->recompute_destinations(graph_, &down_links_, dsts,
                                  table_runner_.get());
    if (cfg_.validate_tables)
      SPINELESS_CHECK_MSG(
          routing::ecmp_table_valid(graph_, *ecmp_, &down_links_),
          "incrementally repaired ECMP table failed validation");
  } else if (vrf_ != nullptr) {
    vrf_->recompute_destinations(graph_, &down_links_, dsts,
                                 table_runner_.get());
  }
  installed_dead_ = down_links_;
  table_build_s_ += util::monotonic_seconds() - start;
}

void Network::schedule_link_failure(Simulator& sim, topo::LinkId link, Time at,
                                    Time reconvergence_delay) {
  failure_events_.push_back(std::make_unique<FailureEvent>(*this, link));
  FailureEvent* ev = failure_events_.back().get();
  // Failures mutate whole-network state (every Link of the pair, the
  // forwarding tables), so in sharded runs they execute barrier-
  // synchronized between windows, at exactly their serial (t, prio) slot.
  ev->set_event_identity(next_oid(), EventSink::kShardGlobal);
  sim.schedule_at(at, ev, /*ctx=*/0);
  sim.schedule_at(at + reconvergence_delay, ev, /*ctx=*/1);
}

void Network::register_flow(std::int32_t flow_id, Endpoint* source,
                            Endpoint* sink) {
  const auto idx = static_cast<std::size_t>(flow_id);
  if (sources_.size() <= idx) {
    sources_.resize(idx + 1, nullptr);
    sinks_.resize(idx + 1, nullptr);
  }
  sources_[idx] = source;
  sinks_[idx] = sink;
  // Preallocate the trace slot while registration is still single-threaded:
  // shards then write disjoint traces_[i] entries without ever resizing
  // the outer vector mid-run.
  if (cfg_.trace_paths && traces_.size() <= idx) traces_.resize(idx + 1);
}

void Network::set_flow_routes(std::int32_t flow_id, routing::Path forward) {
  SPINELESS_CHECK(!forward.empty());
  SPINELESS_CHECK_MSG(forward.size() <= 250, "route too long for route_idx");
  auto routes = std::make_unique<FlowRoutes>();
  routes->reverse.assign(forward.rbegin(), forward.rend());
  routes->forward = std::move(forward);
  const auto idx = static_cast<std::size_t>(flow_id);
  if (routes_.size() <= idx) routes_.resize(idx + 1);
  routes_[idx] = std::move(routes);
}

void Network::inject_from_host(Simulator& sim, Packet pkt) {
  pkt.vrf = static_cast<std::int8_t>(cfg_.su_k);  // hosts live in VRF K
  pkt.hops = 0;
  if (cfg_.mode == RoutingMode::kSourceRouted) {
    const auto idx = static_cast<std::size_t>(pkt.flow_id);
    SPINELESS_CHECK_MSG(idx < routes_.size() && routes_[idx] != nullptr,
                        "kSourceRouted flow without set_flow_routes");
    pkt.route = pkt.is_ack ? &routes_[idx]->reverse : &routes_[idx]->forward;
    pkt.route_idx = 0;
  }
  host_up_[static_cast<std::size_t>(pkt.src_host)].enqueue(sim, pkt);
}

Network::FlowletState& Network::FlowletTable::operator[](std::int32_t flow) {
  if (slots_.empty()) slots_.resize(16);
  std::size_t mask = slots_.size() - 1;
  for (std::size_t i = probe_start(flow, mask);; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.flow == flow) return s.state;
    if (s.flow < 0) {
      if ((size_ + 1) * 4 > slots_.size() * 3) {  // keep load <= 3/4
        grow();
        return (*this)[flow];
      }
      s.flow = flow;
      ++size_;
      return s.state;
    }
  }
}

void Network::FlowletTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.flow < 0) continue;
    std::size_t i = probe_start(s.flow, mask);
    while (slots_[i].flow >= 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

topo::LinkId Network::link_to_neighbor(NodeId node, NodeId neighbor) const {
  const topo::LinkId link = graph_.link_between(node, neighbor);
  if (link == topo::kInvalidLink) throw Error("source route hop is not a link");
  return link;
}

std::uint64_t Network::hash_key(Simulator& sim, NodeId node,
                                const Packet& pkt) {
  std::uint64_t key =
      static_cast<std::uint64_t>(pkt.flow_id) * 0x9e3779b97f4a7c15ULL ^
      (static_cast<std::uint64_t>(node) << 32);
  if (cfg_.flowlet_gap > 0) {
    FlowletState& state = flowlets_[static_cast<std::size_t>(node)][pkt.flow_id];
    if (state.last != 0 && sim.now() - state.last > cfg_.flowlet_gap)
      ++state.id;  // idle gap long enough to reorder-safely switch paths
    state.last = sim.now();
    key ^= static_cast<std::uint64_t>(state.id) * 0xc2b2ae3d27d4eb4fULL;
  }
  return key;
}

Link& Network::out_link(NodeId node, topo::LinkId link) {
  const bool a_to_b = graph_.link(link).a == node;
  return net_links_[2 * static_cast<std::size_t>(link) + (a_to_b ? 0 : 1)];
}

void Network::forward_at_switch(Simulator& sim, NodeId node, int slot,
                                PacketNode* packet_node) {
  PacketPool& pool = *pools_[static_cast<std::size_t>(slot)];
  NetStats& stats = shard_stats_[static_cast<std::size_t>(slot)].s;
  Packet& pkt = packet_node->pkt;  // mutated in place; the node moves on
  if (pkt.flow_id < 0) {
    // In-band control (BFD hello): consumed by the adjacent switch, never
    // forwarded. A corrupted hello failed its checksum — treat as lost.
    if (hello_handler_ != nullptr && !pkt.corrupted)
      hello_handler_->on_hello(sim, pkt);
    pool.release(packet_node);
    return;
  }
  if (cfg_.trace_paths && !pkt.is_ack && pkt.seq == 0) {
    const auto idx = static_cast<std::size_t>(pkt.flow_id);
    if (traces_.size() <= idx) traces_.resize(idx + 1);
    // Only the first copy extends the trace: hop counts of duplicates
    // restart at 0 and never match the recorded length again.
    if (static_cast<std::size_t>(pkt.hops) == traces_[idx].size())
      traces_[idx].push_back(node);
  }
  if (pkt.dst_tor == node) {
    // Local rack: the subnet is directly connected (in every VRF — the
    // standard connected-route leak), hand to the host port.
    host_down_[static_cast<std::size_t>(pkt.dst_host)].enqueue_node(
        sim, packet_node);
    return;
  }
  if (++pkt.hops > 64) {
    ++stats.ttl_drops;
    pool.release(packet_node);
    return;
  }
  if (cfg_.mode == RoutingMode::kSourceRouted) {
    SPINELESS_DCHECK(pkt.route != nullptr &&
                     (*pkt.route)[pkt.route_idx] == node);
    const NodeId next = (*pkt.route)[pkt.route_idx + 1];
    ++pkt.route_idx;
    out_link(node, link_to_neighbor(node, next)).enqueue_node(sim,
                                                              packet_node);
    return;
  }
  // Hash key: flow and current switch — per-hop independent ECMP, like
  // hashed 5-tuple forwarding with per-switch seeds (plus the flowlet id
  // when flowlet switching is on).
  const std::uint64_t key = hash_key(sim, node, pkt);

  if (cfg_.mode == RoutingMode::kEcmp) {
    const auto hops = ecmp_->next_hops(node, pkt.dst_tor);
    if (hops.empty()) {
      ++stats.no_route_drops;  // destination cut off by failures
      pool.release(packet_node);
      return;
    }
    const routing::Port& p = hops[pick(key, hops.size())];
    out_link(node, p.link).enqueue_node(sim, packet_node);
    return;
  }
  const auto& hops = vrf_->next_hops(node, pkt.vrf, pkt.dst_tor);
  if (hops.empty()) {
    ++stats.no_route_drops;
    pool.release(packet_node);
    return;
  }
  std::size_t choice;
  if (cfg_.weighted_su) {
    std::int64_t total = 0;
    for (const auto& hop : hops) total += hop.weight;
    auto r = static_cast<std::int64_t>(
        splitmix64(key ^ cfg_.ecmp_salt) % static_cast<std::uint64_t>(total));
    choice = 0;
    while (r >= hops[choice].weight) {
      r -= hops[choice].weight;
      ++choice;
    }
  } else {
    choice = pick(key, hops.size());
  }
  const routing::VrfHop& h = hops[choice];
  pkt.vrf = static_cast<std::int8_t>(h.next_vrf);
  out_link(node, h.port.link).enqueue_node(sim, packet_node);
}

void Network::deliver(Simulator& sim, int slot, const Packet& pkt) {
  NetStats& stats = shard_stats_[static_cast<std::size_t>(slot)].s;
  if (pkt.corrupted) {
    // End-to-end checksum: the packet crossed the fabric but its payload
    // is garbage — discard silently, TCP recovers it like any loss.
    ++stats.corrupt_drops;
    return;
  }
  ++stats.delivered;
  if (!pkt.is_ack) stats.delivered_bytes += pkt.size_bytes;
  const auto idx = static_cast<std::size_t>(pkt.flow_id);
  SPINELESS_DCHECK(idx < sinks_.size());
  Endpoint* ep = pkt.is_ack ? sources_[idx] : sinks_[idx];
  SPINELESS_DCHECK(ep != nullptr);
  ep->on_packet(sim, pkt);
}

routing::Path Network::traced_path(std::int32_t flow_id) const {
  const auto idx = static_cast<std::size_t>(flow_id);
  return idx < traces_.size() ? traces_[idx] : routing::Path{};
}

Network::NetStats Network::stats() const {
  NetStats s;
  for (const ShardStats& stripe : shard_stats_) {
    s.ttl_drops += stripe.s.ttl_drops;
    s.no_route_drops += stripe.s.no_route_drops;
    s.delivered += stripe.s.delivered;
    s.corrupt_drops += stripe.s.corrupt_drops;
    s.delivered_bytes += stripe.s.delivered_bytes;
  }
  auto account = [&s](const std::vector<Link>& links) {
    for (const Link& l : links) {
      s.queue_drops += l.stats().drops;
      s.blackhole_drops += l.stats().down_drops;
      s.gray_drops += l.stats().gray_drops;
    }
  };
  account(net_links_);
  account(host_up_);
  account(host_down_);
  return s;
}

std::vector<std::int64_t> Network::queue_occupancy() const {
  std::vector<std::int64_t> occ;
  occ.reserve(net_links_.size());
  for (const Link& l : net_links_) occ.push_back(l.queued_bytes());
  return occ;
}

std::vector<double> Network::link_utilization(Time elapsed) const {
  SPINELESS_CHECK(elapsed > 0);
  std::vector<double> util;
  util.reserve(net_links_.size());
  const double capacity_bytes = static_cast<double>(cfg_.link_rate_bps) / 8.0 *
                                units::to_seconds(elapsed);
  for (const Link& l : net_links_)
    util.push_back(static_cast<double>(l.stats().bytes_tx) / capacity_bytes);
  return util;
}

Network::UtilizationStats Network::utilization_stats(Time elapsed) const {
  const auto util = link_utilization(elapsed);
  UtilizationStats s;
  if (util.empty()) return s;
  Summary summary;
  for (double u : util) summary.add(u);
  s.mean = summary.mean();
  s.max = summary.max();
  s.p99 = summary.p99();
  return s;
}

void Network::FlowletTable::save_state(SnapshotWriter& w) const {
  w.u64(slots_.size());
  w.u64(size_);
  for (const Slot& s : slots_) {
    w.i64(s.flow);
    w.i64(s.state.last);
    w.u32(s.state.id);
  }
}

void Network::FlowletTable::load_state(SnapshotReader& r) {
  slots_.assign(r.u64(), Slot{});
  size_ = r.u64();
  for (Slot& s : slots_) {
    s.flow = static_cast<std::int32_t>(r.i64());
    s.state.last = r.i64();
    s.state.id = r.u32();
  }
}

void Network::collect_sinks(SinkRegistry& reg) {
  // Mirror of the constructor's (and schedule_link_failure's) oid
  // assignment order.
  for (NodeId n = 0; n < graph_.num_switches(); ++n)
    reg.add(&switches_[static_cast<std::size_t>(n)], CtxKind::kPacketNode,
            shard_of_switch(n));
  for (HostId h = 0; h < graph_.total_servers(); ++h)
    reg.add(&hosts_[static_cast<std::size_t>(h)], CtxKind::kPacketNode,
            shard_of_host(h));
  for (Link& l : net_links_) reg.add(&l, CtxKind::kPlain);
  for (HostId h = 0; h < graph_.total_servers(); ++h) {
    reg.add(&host_up_[static_cast<std::size_t>(h)], CtxKind::kPlain);
    reg.add(&host_down_[static_cast<std::size_t>(h)], CtxKind::kPlain);
  }
  for (const auto& ev : failure_events_) reg.add(ev.get(), CtxKind::kPlain);
}

namespace {

void save_link_set(SnapshotWriter& w, const routing::LinkSet& set,
                   topo::LinkId num_links) {
  // LinkSet has no iteration — membership-scan the (small) id space.
  w.u64(set.size());
  for (topo::LinkId l = 0; l < num_links; ++l)
    if (set.contains(l)) w.i64(l);
}

routing::LinkSet load_link_set(SnapshotReader& r) {
  routing::LinkSet set;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i)
    set.insert(static_cast<topo::LinkId>(r.i64()));
  return set;
}

void save_net_stats(SnapshotWriter& w, const Network::NetStats& s) {
  w.i64(s.queue_drops);
  w.i64(s.ttl_drops);
  w.i64(s.no_route_drops);
  w.i64(s.delivered);
  w.i64(s.blackhole_drops);
  w.i64(s.gray_drops);
  w.i64(s.corrupt_drops);
  w.i64(s.delivered_bytes);
}

void load_net_stats(SnapshotReader& r, Network::NetStats* s) {
  s->queue_drops = r.i64();
  s->ttl_drops = r.i64();
  s->no_route_drops = r.i64();
  s->delivered = r.i64();
  s->blackhole_drops = r.i64();
  s->gray_drops = r.i64();
  s->corrupt_drops = r.i64();
  s->delivered_bytes = r.i64();
}

}  // namespace

void Network::save_state(SnapshotWriter& w, const PacketCodec& codec) const {
  // Shape guards: a snapshot from a different topology/config must fail
  // loudly at load, not misalign silently.
  w.u64(static_cast<std::uint64_t>(graph_.num_switches()));
  w.u64(static_cast<std::uint64_t>(graph_.total_servers()));
  w.u64(static_cast<std::uint64_t>(graph_.num_links()));
  w.u32(next_oid_);
  for (const ShardStats& stripe : shard_stats_) save_net_stats(w, stripe.s);
  for (const Link& l : net_links_) l.save_state(w, codec);
  for (const Link& l : host_up_) l.save_state(w, codec);
  for (const Link& l : host_down_) l.save_state(w, codec);
  save_link_set(w, down_links_, graph_.num_links());
  save_link_set(w, installed_dead_, graph_.num_links());
  w.u64(pending_repair_.size());
  for (const topo::LinkId l : pending_repair_) w.i64(l);
  w.u64(flowlets_.size());
  for (const FlowletTable& t : flowlets_) t.save_state(w);
  w.u64(traces_.size());
  for (const routing::Path& p : traces_) {
    w.u64(p.size());
    for (const NodeId n : p) w.i64(n);
  }
}

void Network::load_state(SnapshotReader& r, const PacketCodec& codec) {
  SPINELESS_CHECK_MSG(
      r.u64() == static_cast<std::uint64_t>(graph_.num_switches()) &&
          r.u64() == static_cast<std::uint64_t>(graph_.total_servers()) &&
          r.u64() == static_cast<std::uint64_t>(graph_.num_links()),
      "snapshot topology shape does not match this network");
  SPINELESS_CHECK_MSG(r.u32() == next_oid_,
                      "snapshot oid space does not match — the experiment "
                      "was not reconstructed identically");
  for (ShardStats& stripe : shard_stats_) load_net_stats(r, &stripe.s);
  for (Link& l : net_links_) l.load_state(r, codec);
  for (Link& l : host_up_) l.load_state(r, codec);
  for (Link& l : host_down_) l.load_state(r, codec);
  const routing::LinkSet down = load_link_set(r);
  const routing::LinkSet installed = load_link_set(r);
  std::vector<topo::LinkId> pending(r.u64());
  for (topo::LinkId& l : pending) l = static_cast<topo::LinkId>(r.i64());
  // Forwarding tables are rebuilt (deterministic functions of graph +
  // installed dead set), not serialized; the wall time this takes lands in
  // table_build_s_, which is excluded from byte-identity comparisons.
  if (!installed.empty()) rebuild_tables(&installed);
  down_links_ = down;
  pending_repair_ = std::move(pending);
  const std::uint64_t n_flowlets = r.u64();
  SPINELESS_CHECK(n_flowlets == flowlets_.size());
  for (FlowletTable& t : flowlets_) t.load_state(r);
  traces_.resize(r.u64());
  for (routing::Path& p : traces_) {
    p.resize(r.u64());
    for (NodeId& n : p) n = static_cast<NodeId>(r.i64());
  }
}

const routing::Path* Network::route_for(std::int32_t flow_id,
                                        bool is_ack) const {
  const auto idx = static_cast<std::size_t>(flow_id);
  SPINELESS_CHECK_MSG(idx < routes_.size() && routes_[idx] != nullptr,
                      "restored packet references an unknown source route");
  return is_ack ? &routes_[idx]->reverse : &routes_[idx]->forward;
}

std::int64_t Network::max_network_queue_bytes() const {
  std::int64_t peak = 0;
  for (const Link& l : net_links_)
    peak = std::max(peak, l.stats().max_queue_bytes);
  return peak;
}

}  // namespace spineless::sim
