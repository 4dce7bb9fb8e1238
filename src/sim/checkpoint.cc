#include "sim/checkpoint.h"

#include <algorithm>
#include <sstream>

#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "util/fsio.h"

namespace spineless::sim {
namespace {

// Section tags after the summary, in the order they are written. Parts
// frame their state in their own section_tag() (kSectionPartTag unless
// overridden, e.g. the hybrid loop's kSectionHybrid — see checkpoint.h).
constexpr std::uint32_t kSectionPrio = 0x5052494f;     // "PRIO"
constexpr std::uint32_t kSectionNet = 0x4e455457;      // "NETW"
constexpr std::uint32_t kSectionEngine = 0x454e474e;   // "ENGN"
constexpr std::uint32_t kSectionGlobals = 0x474c424c;  // "GLBL"

// The forwarding path drops at hops > 64 (network.cc); any live packet
// above that escaped the TTL guard.
constexpr std::uint64_t kMaxLiveHops = 64;

// The SUMM section's totals, in SummaryField order: save writes them,
// restore cross-checks the restored state against them, and the auditor
// checks packet conservation and the TTL bound with them.
struct SummaryTotals {
  std::uint64_t now = 0;
  std::uint64_t processed = 0;
  std::uint64_t packet_events = 0;  // pending packet-carrying events
  std::uint64_t queued_nodes = 0;
  std::uint64_t queued_bytes = 0;
  std::uint64_t max_hops = 0;  // over in-flight and queued packets
};

SummaryTotals summary_totals(const EngineView& view, const Network& net,
                             const SinkRegistry& registry) {
  SummaryTotals s;
  s.now = static_cast<std::uint64_t>(view.sim(0).now());
  for (int i = 0; i < view.num_sims(); ++i) {
    const Simulator& sim = view.sim(i);
    s.processed += sim.events_processed();
    for (const Simulator::Event& e : sim.pending_events()) {
      if (registry.by_oid(e.sink->event_oid()).kind != CtxKind::kPacketNode)
        continue;
      ++s.packet_events;
      s.max_hops = std::max(
          s.max_hops, std::uint64_t{
                          reinterpret_cast<const PacketNode*>(e.ctx)->pkt.hops});
    }
  }
  net.for_each_link([&s](const Link& l) {
    const Link::QueueAudit a = l.audit_queue();
    s.queued_nodes += static_cast<std::uint64_t>(a.nodes);
    s.queued_bytes += static_cast<std::uint64_t>(a.bytes);
    s.max_hops = std::max(s.max_hops, static_cast<std::uint64_t>(a.max_hops));
  });
  return s;
}

// Live invariant checks against the tally `sum` of the same state; the
// per-link consistency and event-time checks walk the state themselves.
AuditReport audit_state(const EngineView& eng, const Network& net,
                        const SummaryTotals& sum) {
  AuditReport report;
  const auto violated = [&report](const std::string& invariant,
                                  const std::string& detail) {
    report.violations.push_back({invariant, detail});
  };

  // Monotonic event time: every pending event fires at or after its
  // simulator's clock (all clocks are parked at the same boundary).
  for (int i = 0; i < eng.num_sims(); ++i) {
    const Simulator& sim = eng.sim(i);
    for (const Simulator::Event& e : sim.pending_events()) {
      if (e.t < sim.now()) {
        std::ostringstream os;
        os << "pending event at t=" << e.t << " is before now=" << sim.now();
        violated("monotonic_event_time", os.str());
      }
    }
  }

  // Queue occupancy: per-link byte accounting and busy flags consistent
  // with the FIFO actually walked.
  std::size_t link_idx = 0;
  net.for_each_link([&](const Link& l) {
    const Link::QueueAudit a = l.audit_queue();
    if (!a.bytes_consistent) {
      std::ostringstream os;
      os << "link #" << link_idx << " queued_bytes counter disagrees with "
         << "its FIFO contents (" << a.bytes << " walked)";
      violated("queue_occupancy", os.str());
    }
    if (!a.busy_consistent) {
      std::ostringstream os;
      os << "link #" << link_idx << " busy flag disagrees with its FIFO";
      violated("queue_occupancy", os.str());
    }
    ++link_idx;
  });

  // Packet conservation: every pool node either sits in a queue or rides a
  // pending propagation event; created = delivered + dropped + in-flight
  // holds because delivery and every drop release the node.
  const std::int64_t in_use = net.pool_nodes_in_use();
  if (in_use != static_cast<std::int64_t>(sum.queued_nodes) +
                    static_cast<std::int64_t>(sum.packet_events)) {
    std::ostringstream os;
    os << "pool nodes in use " << in_use << " != queued " << sum.queued_nodes
       << " + in-flight " << sum.packet_events;
    violated("packet_conservation", os.str());
  }

  // TTL: no live packet above the forwarding drop bound — a higher count
  // means a routing loop escaped the guard.
  if (sum.max_hops > kMaxLiveHops) {
    std::ostringstream os;
    os << "live packet with " << sum.max_hops
       << " hops exceeds the TTL bound " << kMaxLiveHops;
    violated("ttl", os.str());
  }
  return report;
}

}  // namespace

void SinkRegistry::add(EventSink* sink, CtxKind kind, int pool_shard) {
  SPINELESS_CHECK_MSG(sink->has_event_identity(),
                      "checkpoint: sink registered without a scheduling oid");
  const std::uint32_t oid = sink->event_oid();
  const bool inserted = by_oid_.emplace(oid, order_.size()).second;
  SPINELESS_CHECK_MSG(inserted, "checkpoint: duplicate oid " << oid
                                    << " in sink registry");
  order_.push_back(Entry{sink, kind, pool_shard});
}

const SinkRegistry::Entry& SinkRegistry::by_oid(std::uint32_t oid) const {
  const auto it = by_oid_.find(oid);
  SPINELESS_CHECK_MSG(it != by_oid_.end(),
                      "checkpoint: event for unregistered oid "
                          << oid << " — an experiment component was not "
                                    "added to the session");
  return order_[it->second];
}

void SinkRegistry::clear_and_reserve(std::size_t n) {
  order_.clear();
  by_oid_.clear();
  order_.reserve(n);
  by_oid_.reserve(n);
}

void PacketCodec::write(SnapshotWriter& w, const Packet& p) const {
  w.i64(static_cast<std::int64_t>(p.src_host));
  w.i64(static_cast<std::int64_t>(p.dst_host));
  w.i64(static_cast<std::int64_t>(p.dst_tor));
  w.i64(p.flow_id);
  w.i64(p.seq);
  w.u32(static_cast<std::uint32_t>(p.size_bytes));
  w.u8(p.is_ack ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(p.vrf));
  w.u8(p.hops);
  w.u8(p.ecn_ce ? 1 : 0);
  w.u8(p.corrupted ? 1 : 0);
  w.i64(p.ts);
  w.u8(p.route != nullptr ? 1 : 0);
  w.u8(p.route_idx);
}

Packet PacketCodec::read(SnapshotReader& r) const {
  Packet p;
  p.src_host = static_cast<topo::HostId>(r.i64());
  p.dst_host = static_cast<topo::HostId>(r.i64());
  p.dst_tor = static_cast<topo::NodeId>(r.i64());
  p.flow_id = static_cast<std::int32_t>(r.i64());
  p.seq = r.i64();
  p.size_bytes = static_cast<std::int32_t>(r.u32());
  p.is_ack = r.u8() != 0;
  p.vrf = static_cast<std::int8_t>(r.u8());
  p.hops = r.u8();
  p.ecn_ce = r.u8() != 0;
  p.corrupted = r.u8() != 0;
  p.ts = r.i64();
  const bool has_route = r.u8() != 0;
  p.route_idx = r.u8();
  // The route pointer aims into the owning Network's pinned route store;
  // re-resolve it by flow instead of serializing an address.
  if (has_route) p.route = net_.route_for(p.flow_id, p.is_ack);
  return p;
}

std::string AuditReport::to_string() const {
  if (ok()) return "audit: ok";
  std::ostringstream os;
  os << "audit: " << violations.size() << " invariant violation(s):";
  for (const AuditViolation& v : violations)
    os << "\n  [" << v.invariant << "] " << v.detail;
  return os.str();
}

int EngineView::num_sims() const {
  return serial_ != nullptr ? 1 : sharded_->num_shards() + 1;
}

Simulator& EngineView::sim(int i) const {
  if (serial_ != nullptr) return *serial_;
  return i == 0 ? sharded_->control() : sharded_->shard_mut(i - 1);
}

Time EngineView::now() const {
  return serial_ != nullptr ? serial_->now() : sharded_->now();
}

std::uint64_t EngineView::events_processed() const {
  return serial_ != nullptr ? serial_->events_processed()
                            : sharded_->events_processed();
}

void EngineView::run_until(Time t) const {
  if (serial_ != nullptr) {
    serial_->run_until(t);
  } else {
    sharded_->run_until(t);
  }
}

CheckpointSession::CheckpointSession(Network& net, std::uint64_t config_hash)
    : net_(net), config_hash_(config_hash) {}

void CheckpointSession::build_registry() {
  // Construction order: the Network's own sinks first, then every part in
  // the order it was added (which must be its construction order).
  registry_.clear_and_reserve(0);
  net_.collect_sinks(registry_);
  for (Checkpointable* part : parts_) part->collect_sinks(registry_);
}

void CheckpointSession::write_events(
    SnapshotWriter& w, const PacketCodec& codec,
    const std::vector<Simulator::Event>& events) const {
  w.u64(events.size());
  for (const Simulator::Event& e : events) {
    const SinkRegistry::Entry& entry = registry_.by_oid(e.sink->event_oid());
    SPINELESS_CHECK_MSG(entry.sink == e.sink,
                        "checkpoint: pending event whose sink aliases a "
                        "registered oid but is not the registered sink");
    w.i64(e.t);
    w.u64(e.prio);
    w.u32(e.sink->event_oid());
    w.u8(static_cast<std::uint8_t>(entry.kind));
    if (entry.kind == CtxKind::kPacketNode) {
      codec.write(w, reinterpret_cast<const PacketNode*>(e.ctx)->pkt);
    } else {
      w.u64(e.ctx);
    }
  }
}

std::vector<Simulator::Event> CheckpointSession::read_events(
    SnapshotReader& r, const PacketCodec& codec) const {
  std::vector<Simulator::Event> events(r.u64());
  for (Simulator::Event& e : events) {
    e.t = r.i64();
    e.prio = r.u64();
    const std::uint32_t oid = r.u32();
    const auto kind = static_cast<CtxKind>(r.u8());
    const SinkRegistry::Entry& entry = registry_.by_oid(oid);
    SPINELESS_CHECK_MSG(static_cast<std::uint8_t>(entry.kind) ==
                            static_cast<std::uint8_t>(kind),
                        "checkpoint: event ctx kind mismatch for oid " << oid);
    e.sink = entry.sink;
    if (kind == CtxKind::kPacketNode) {
      e.ctx = reinterpret_cast<std::uint64_t>(
          net_.alloc_restored_node(entry.pool_shard, codec.read(r)));
    } else {
      e.ctx = r.u64();
    }
  }
  return events;
}

std::string CheckpointSession::save_bytes(EngineView eng) {
  build_registry();
  const PacketCodec codec(net_);
  SnapshotWriter w(config_hash_);

  // Summary: the redundant totals the restore path (and the negative
  // tests) cross-check restored state against.
  const SummaryTotals sum = summary_totals(eng, net_, registry_);
  w.begin_section(kSectionSummary);
  w.u64(sum.now);            // kSummaryNow
  w.u64(sum.processed);      // kSummaryProcessed
  w.u64(sum.packet_events);  // kSummaryPacketEvents
  w.u64(sum.queued_nodes);   // kSummaryQueuedNodes
  w.u64(sum.queued_bytes);   // kSummaryQueuedBytes
  w.u64(sum.max_hops);       // kSummaryMaxHops
  w.end_section();

  // Live priority counters, registry order.
  w.begin_section(kSectionPrio);
  w.u64(registry_.size());
  for (std::size_t i = 0; i < registry_.size(); ++i)
    w.u64(registry_.at(i).sink->prio_state());
  w.end_section();

  w.begin_section(kSectionNet);
  net_.save_state(w, codec);
  w.end_section();

  for (const Checkpointable* part : parts_) {
    w.begin_section(part->section_tag());
    part->save_state(w);
    w.end_section();
  }

  for (int i = 0; i < eng.num_sims(); ++i) {
    const Simulator& sim = eng.sim(i);
    w.begin_section(kSectionEngine);
    w.i64(sim.now());
    w.u64(sim.events_processed());
    w.u64(sim.root_prio_state());
    w.u32(sim.lazy_oid_state());
    write_events(w, codec, sim.pending_events());
    w.end_section();
  }

  if (eng.sharded() != nullptr) {
    w.begin_section(kSectionGlobals);
    write_events(w, codec, eng.sharded()->pending_globals());
    w.end_section();
  }

  return w.seal();
}

void CheckpointSession::save(const std::string& path, EngineView eng) {
  SPINELESS_CHECK_MSG(util::atomic_write_file(path, save_bytes(eng)),
                      "checkpoint: failed to write snapshot to " << path);
}

bool CheckpointSession::restore(const std::string& path, EngineView eng) {
  std::string bytes;
  if (!SnapshotReader::load_file(path, &bytes)) return false;
  restore_bytes(std::move(bytes), eng);
  return true;
}

void CheckpointSession::restore_bytes(std::string bytes, EngineView eng) {
  SnapshotReader r(std::move(bytes));
  if (r.config_hash() != config_hash_) {
    throw Error(
        "checkpoint: snapshot configuration hash does not match this "
        "experiment (different seed/topology/routing/intra_jobs?)");
  }
  build_registry();
  const PacketCodec codec(net_);

  SummaryTotals want;
  r.expect_section(kSectionSummary);
  want.now = r.u64();
  want.processed = r.u64();
  want.packet_events = r.u64();
  want.queued_nodes = r.u64();
  want.queued_bytes = r.u64();
  want.max_hops = r.u64();
  r.end_section();

  r.expect_section(kSectionPrio);
  SPINELESS_CHECK_MSG(r.u64() == registry_.size(),
                      "checkpoint: sink count mismatch — the experiment was "
                      "not reconstructed identically");
  for (std::size_t i = 0; i < registry_.size(); ++i)
    registry_.at(i).sink->restore_prio_state(r.u64());
  r.end_section();

  r.expect_section(kSectionNet);
  net_.load_state(r, codec);
  r.end_section();

  for (Checkpointable* part : parts_) {
    r.expect_section(part->section_tag());
    part->load_state(r);
    r.end_section();
  }

  for (int i = 0; i < eng.num_sims(); ++i) {
    r.expect_section(kSectionEngine);
    const Time now = r.i64();
    const std::uint64_t processed = r.u64();
    const std::uint64_t root_key = r.u64();
    const std::uint32_t lazy_oid = r.u32();
    std::vector<Simulator::Event> events = read_events(r, codec);
    r.end_section();
    eng.sim(i).restore_state(now, processed, root_key, lazy_oid,
                             std::move(events));
  }

  if (eng.sharded() != nullptr) {
    r.expect_section(kSectionGlobals);
    eng.sharded()->restore_globals(read_events(r, codec));
    r.end_section();
  }
  SPINELESS_CHECK_MSG(r.at_end(), "checkpoint: trailing sections in snapshot");

  // Cross-check the restored state against the snapshot's own summary —
  // this is what turns a corrupted-but-checksum-valid snapshot (or a state
  // bug) into a named invariant violation instead of a wrong result.
  const SummaryTotals got = summary_totals(eng, net_, registry_);
  AuditReport report = audit_state(eng, net_, got);
  const auto violated = [&report](const std::string& invariant,
                                  const std::string& detail) {
    report.violations.push_back({invariant, detail});
  };
  if (got.now != want.now) {
    std::ostringstream os;
    os << "restored clock " << got.now << " != snapshot summary now "
       << want.now;
    violated("monotonic_event_time", os.str());
  }
  if (got.processed != want.processed) {
    std::ostringstream os;
    os << "restored event count " << got.processed << " != snapshot summary "
       << want.processed;
    violated("monotonic_event_time", os.str());
  }
  if (got.packet_events != want.packet_events ||
      got.queued_nodes != want.queued_nodes) {
    std::ostringstream os;
    os << "restored in-flight " << got.packet_events << " + queued "
       << got.queued_nodes << " packets != snapshot summary "
       << want.packet_events << " + " << want.queued_nodes;
    violated("packet_conservation", os.str());
  }
  if (got.queued_bytes != want.queued_bytes) {
    std::ostringstream os;
    os << "restored queue occupancy " << got.queued_bytes
       << " bytes != snapshot summary " << want.queued_bytes;
    violated("queue_occupancy", os.str());
  }
  if (want.max_hops > kMaxLiveHops) {
    std::ostringstream os;
    os << "snapshot summary max hops " << want.max_hops
       << " exceeds the TTL bound " << kMaxLiveHops;
    violated("ttl", os.str());
  }
  if (got.max_hops > want.max_hops) {
    std::ostringstream os;
    os << "restored packet with " << got.max_hops
       << " hops exceeds snapshot summary " << want.max_hops;
    violated("ttl", os.str());
  }
  if (!report.ok()) throw Error("checkpoint restore: " + report.to_string());
}

AuditReport CheckpointSession::audit(EngineView eng) {
  build_registry();
  return audit_state(eng, net_, summary_totals(eng, net_, registry_));
}

bool run_segments(EngineView eng, CheckpointSession* session,
                  const CheckpointSpec& spec, Time deadline, Time step,
                  const std::function<void(Time, Time)>& segment) {
  if (session != nullptr && spec.resume && !spec.path.empty())
    session->restore(spec.path, eng);
  Time t = eng.now();  // resume point when a snapshot was restored
  Time last_save = t;
  while (t < deadline) {
    const Time w_end = std::min<Time>(deadline, t + step);
    if (segment) {
      segment(t, w_end);
    } else {
      eng.run_until(w_end);
    }
    t = w_end;
    if (spec.progress) spec.progress(eng.events_processed());
    if (session != nullptr && spec.audit) {
      const AuditReport report = session->audit(eng);
      if (!report.ok()) throw Error(report.to_string());
    }
    if (t >= deadline) break;  // complete: no snapshot needed
    if (session != nullptr && !spec.path.empty() &&
        (spec.interval <= 0 || t - last_save >= spec.interval)) {
      session->save(spec.path, eng);
      last_save = t;
    }
    if (spec.cancel && spec.cancel()) return false;
  }
  return true;
}

std::string section_tag_name(std::uint32_t tag) {
  std::string name;
  for (int shift = 24; shift >= 0; shift -= 8) {
    const char c = static_cast<char>((tag >> shift) & 0xff);
    name += (c >= 0x20 && c < 0x7f) ? c : '?';
  }
  return name;
}

void write_section_version(SnapshotWriter& w, std::uint32_t tag,
                           std::uint32_t version) {
  w.u64((static_cast<std::uint64_t>(tag) << 32) | version);
}

void expect_section_version(SnapshotReader& r, std::uint32_t tag,
                            std::uint32_t version) {
  const std::uint64_t word = r.u64();
  const auto got_tag = static_cast<std::uint32_t>(word >> 32);
  const auto got_version = static_cast<std::uint32_t>(word);
  if (got_tag != tag) {
    // Pre-versioning payloads started with ordinary state words whose high
    // half never spells the section tag.
    throw Error("snapshot section '" + section_tag_name(tag) +
                "': payload predates section versioning (no version "
                "header) — re-create the snapshot with this build");
  }
  if (got_version != version) {
    throw Error("snapshot section '" + section_tag_name(tag) + "' version " +
                std::to_string(got_version) + ", expected " +
                std::to_string(version) +
                " — snapshot was written by an incompatible build");
  }
}

}  // namespace spineless::sim
