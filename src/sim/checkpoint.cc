#include "sim/checkpoint.h"

#include <algorithm>
#include <sstream>

#include "sim/network.h"
#include "sim/sharded_engine.h"
#include "util/fsio.h"

namespace spineless::sim {

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

// An event's t, prio, oid and ctx kind, then at least a u64 ctx word (a
// packet-carrying event's packet is longer).
constexpr std::size_t kMinEventBytes = 8 + 8 + 4 + 1 + 8;

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

template <class Io, class P>
void PacketCodec::walk(Io& io, P& p) const {
  io.i64(p.src_host);
  io.i64(p.dst_host);
  io.i64(p.dst_tor);
  io.i64(p.flow_id);
  io.i64(p.seq);
  io.u32(p.size_bytes);
  io.u8(p.is_ack);
  io.u8(p.vrf);
  io.u8(p.hops);
  io.u8(p.ecn_ce);
  io.u8(p.corrupted);
  io.i64(p.ts);
  bool has_route = p.route != nullptr;
  io.u8(has_route);
  io.u8(p.route_idx);
  // The route pointer aims into the owning Network's pinned route store;
  // re-resolve it by flow instead of serializing an address.
  if constexpr (!Io::kSaving)
    if (has_route) p.route = net_.route_for(p.flow_id, p.is_ack);
}

void PacketCodec::fields(SnapshotWriter& w, const Packet& p) const {
  walk(w, p);
}

void PacketCodec::fields(SnapshotReader& r, Packet& p) const { walk(r, p); }

std::size_t PacketCodec::wire_bytes() const {
  return min_wire_bytes<Packet>(
      [this](WireSize& size, const Packet& p) { walk(size, p); });
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

template <class Io, class Events>
void CheckpointSession::event_fields(Io& io, const PacketCodec& codec,
                                     Events& events) const {
  std::uint64_t n = events.size();
  io.count(n, kMinEventBytes);
  if constexpr (!Io::kSaving) events.resize(n);
  for (auto& e : events) {
    // Sinks travel as registry oids; restore maps them back.
    const SinkRegistry::Entry* entry = nullptr;
    std::uint32_t oid = 0;
    CtxKind kind = CtxKind::kPlain;
    if constexpr (Io::kSaving) {
      oid = e.sink->event_oid();
      entry = &registry_.by_oid(oid);
      SPINELESS_CHECK_MSG(entry->sink == e.sink,
                          "checkpoint: pending event whose sink aliases a "
                          "registered oid but is not the registered sink");
      kind = entry->kind;
    }
    io.i64(e.t);
    io.u64(e.prio);
    io.u32(oid);
    io.u8(kind);
    if constexpr (!Io::kSaving) {
      entry = &registry_.by_oid(oid);
      SPINELESS_CHECK_MSG(entry->kind == kind,
                          "checkpoint: event ctx kind mismatch for oid "
                              << oid);
      e.sink = entry->sink;
    }
    if (kind != CtxKind::kPacketNode) {
      io.u64(e.ctx);
    } else if constexpr (Io::kSaving) {
      codec.fields(io, reinterpret_cast<const PacketNode*>(e.ctx)->pkt);
    } else {
      // Packet-carrying events re-allocate their node from the pool of the
      // shard that owns the receiving sink.
      Packet pkt;
      codec.fields(io, pkt);
      e.ctx = reinterpret_cast<std::uint64_t>(
          net_.alloc_restored_node(entry->pool_shard, pkt));
    }
  }
}

template <class Io>
void CheckpointSession::walk(Io& io, EngineView eng, SummaryTotals& sum) {
  const PacketCodec codec(net_);

  // Summary: the redundant totals the restore path (and the negative
  // tests) cross-check restored state against, in SummaryField order.
  io.section(kSectionSummary, [&] {
    io.u64(sum.now);
    io.u64(sum.processed);
    io.u64(sum.packet_events);
    io.u64(sum.queued_nodes);
    io.u64(sum.queued_bytes);
    io.u64(sum.max_hops);
  });

  // Live priority counters, registry order.
  io.section(kSectionPrio, [&] {
    io.expect(registry_.size(),
              "checkpoint: sink count mismatch — the experiment was not "
              "reconstructed identically");
    for (std::size_t i = 0; i < registry_.size(); ++i) {
      EventSink* sink = registry_.at(i).sink;
      std::uint64_t prio = sink->prio_state();
      io.u64(prio);
      if constexpr (!Io::kSaving) sink->restore_prio_state(prio);
    }
  });

  io.section(kSectionNet, [&] { io.part(net_, codec); });
  for (Checkpointable* part : parts_)
    io.section(part->section_tag(), [&] { io.part(*part); });

  for (int i = 0; i < eng.num_sims(); ++i) {
    io.section(kSectionEngine, [&] {
      Simulator& sim = eng.sim(i);
      Time now = sim.now();
      std::uint64_t processed = sim.events_processed();
      std::uint64_t root_key = sim.root_prio_state();
      std::uint32_t lazy_oid = sim.lazy_oid_state();
      io.i64(now);
      io.u64(processed);
      io.u64(root_key);
      io.u32(lazy_oid);
      if constexpr (Io::kSaving) {
        event_fields(io, codec, sim.pending_events());
      } else {
        std::vector<Simulator::Event> events;
        event_fields(io, codec, events);
        sim.restore_state(now, processed, root_key, lazy_oid,
                          std::move(events));
      }
    });
  }

  if (eng.sharded() != nullptr) {
    io.section(kSectionGlobals, [&] {
      std::vector<Simulator::Event> events;
      if constexpr (Io::kSaving) events = eng.sharded()->pending_globals();
      event_fields(io, codec, events);
      if constexpr (!Io::kSaving) eng.sharded()->restore_globals(events);
    });
  }
}

std::string CheckpointSession::save_bytes(EngineView eng) {
  build_registry();
  SummaryTotals sum = summary_totals(eng, net_, registry_);
  SnapshotWriter w(config_hash_);
  walk(w, eng, sum);
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
  SummaryTotals want;
  walk(r, eng, want);
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

void check_section_version(std::uint64_t word, std::uint32_t tag,
                           std::uint32_t version) {
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
