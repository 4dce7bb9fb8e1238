// Deterministic checkpoint/restore and the runtime invariant auditor.
//
// Design: a snapshot does NOT serialize object graphs. The restore path
// first *reconstructs* the experiment deterministically (same topology,
// seed, and construction order — hence the same scheduler oids), then
// clears the freshly-built heaps (pre-run they hold only setup events with
// no owned payloads) and loads: every sink's live priority counter, every
// component's mutable state, and the raw event arrays. Event sinks are
// named by oid through a SinkRegistry built by walking the experiment in
// construction order; packet-carrying events (Device arrivals) re-allocate
// their PacketNode from the receiving shard's pool. Because heap arrays are
// restored verbatim and priority counters resume mid-stream, a restored
// run pops, executes, and schedules the exact event sequence an
// uninterrupted run would — byte-identical results for any intra_jobs.
//
// Checkpoints are only taken at quiescent boundaries: between run_until
// calls on the serial engine, or between ShardedEngine::run_until calls,
// where every shard heap is parked, every handoff lane is empty, and
// pending globals sit in the engine's ordered set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/packet.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace spineless::sim {

class Network;
class ShardedEngine;

// How an event's ctx word is serialized: most sinks carry plain integers
// (timer ids, link indices, action indices); Device sinks carry an owned
// PacketNode*, whose Packet value must be serialized and re-allocated.
enum class CtxKind : std::uint8_t { kPlain = 0, kPacketNode = 1 };

// oid -> sink mapping, built by walking the experiment's components in
// construction order. The walk order also defines the order per-sink
// priority counters are serialized in, so it must be identical between the
// saving run and the restoring run (it is: both are the deterministic
// construction order).
class SinkRegistry {
 public:
  struct Entry {
    EventSink* sink = nullptr;
    CtxKind kind = CtxKind::kPlain;
    int pool_shard = 0;  // kPacketNode: which pool re-allocations draw from
  };

  void add(EventSink* sink, CtxKind kind, int pool_shard = 0);
  std::size_t size() const noexcept { return order_.size(); }
  const Entry& at(std::size_t i) const { return order_[i]; }
  // Lookup by oid; CHECK-fails on an unregistered oid (an experiment
  // component the session was never told about cannot be checkpointed).
  const Entry& by_oid(std::uint32_t oid) const;
  void clear_and_reserve(std::size_t n);

 private:
  std::vector<Entry> order_;
  // Lookup-only index (spineless-unordered-iteration triage): every
  // ordered walk goes over order_, which is construction order; by_oid_ is
  // only probed point-wise via find(), so its hash order can never reach
  // event order or snapshot bytes. Iterating it would trip the lint rule.
  std::unordered_map<std::uint32_t, std::size_t> by_oid_;
};

// Serializes packets, re-resolving the source-route pointer (which is an
// address into the owning Network) by flow id on read.
class PacketCodec {
 public:
  explicit PacketCodec(Network& net) : net_(net) {}
  void write(SnapshotWriter& w, const Packet& p) const;
  Packet read(SnapshotReader& r) const;

 private:
  Network& net_;
};

// Default section tag for Checkpointable parts ("PART"), and the hybrid
// co-simulation loop's own tag ("HYBR") — a distinct tag so a snapshot
// taken mid-hybrid-run is structurally self-describing and cannot be
// restored into a pure-packet experiment by accident.
inline constexpr std::uint32_t kSectionPartTag = 0x50415254;   // "PART"
inline constexpr std::uint32_t kSectionHybrid = 0x48594252;    // "HYBR"

// Versioned section payloads. A section that expects to evolve (the hybrid
// loop's HYBR state grew fault-tolerance fields in PR 8) leads its payload
// with a single u64 word (tag << 32 | version) so version skew fails with a
// section-named message instead of a checksum-adjacent misalignment:
// write_section_version as the first word of save_state, expect_section_
// version as the first read of load_state. A payload whose leading word
// does not carry the tag in its high half predates versioning entirely —
// reported as such, again by section name. The leading word is the
// section's field 0, so snapshot_patch_u64(path, tag, 0, ...) can forge a
// future version for forward-compat negative tests.
void write_section_version(SnapshotWriter& w, std::uint32_t tag,
                           std::uint32_t version);
void expect_section_version(SnapshotReader& r, std::uint32_t tag,
                            std::uint32_t version);
// "HYBR" from 0x48594252 — for error messages.
std::string section_tag_name(std::uint32_t tag);

// Anything beyond the Network that owns mutable simulation state and/or
// event sinks: FlowDriver, FaultInjector, monitors. Implementations must
// save/load in a fixed field order and register their sinks in
// construction order.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void collect_sinks(SinkRegistry& reg) = 0;
  virtual void save_state(SnapshotWriter& w) const = 0;
  virtual void load_state(SnapshotReader& r) = 0;
  // The snapshot section this part's state is framed in. Parts that carry
  // non-packet simulation state of their own (the hybrid loop's fluid
  // flows) override this so the on-disk format names them explicitly.
  virtual std::uint32_t section_tag() const { return kSectionPartTag; }
};

// One invariant violation found by the auditor, e.g.
//   invariant = "packet_conservation", detail = "pool in_use 12 != ...".
struct AuditViolation {
  std::string invariant;
  std::string detail;
};

struct AuditReport {
  std::vector<AuditViolation> violations;
  bool ok() const noexcept { return violations.empty(); }
  std::string to_string() const;
};

// Experiment-loop knobs threaded through core::FctConfig: where and how
// often to checkpoint, whether to resume, whether to audit, and the
// cooperative cancellation / progress hooks the self-healing runner uses.
struct CheckpointSpec {
  std::string path;       // empty = no checkpoint file
  Time interval = 0;      // sim-time between snapshots; 0 = every boundary
  bool resume = false;    // restore from `path` if it exists
  bool audit = false;     // run the invariant auditor at each boundary
  std::function<bool()> cancel;  // polled at boundaries; true = stop early
  std::function<void(std::uint64_t events)> progress;  // watchdog heartbeat
};

// The one-or-many simulators behind an experiment, viewed uniformly. Index
// 0 is the serial simulator or the sharded engine's control simulator;
// 1..num_shards are the shard heaps. Converts implicitly from either
// engine, so the session and run_segments take both without overloads.
class EngineView {
 public:
  EngineView(Simulator& sim) noexcept : serial_(&sim) {}
  EngineView(ShardedEngine& eng) noexcept : sharded_(&eng) {}

  int num_sims() const;
  Simulator& sim(int i) const;
  ShardedEngine* sharded() const noexcept { return sharded_; }

  Time now() const;
  std::uint64_t events_processed() const;
  void run_until(Time t) const;

 private:
  Simulator* serial_ = nullptr;
  ShardedEngine* sharded_ = nullptr;
};

// Orchestrates save/restore/audit for one experiment: the Network plus any
// registered Checkpointable parts, against a serial Simulator or a
// ShardedEngine. config_hash must encode everything that determines the
// reconstructed experiment (seed, topology, routing mode, intra_jobs...);
// restore refuses a snapshot whose hash differs.
class CheckpointSession {
 public:
  CheckpointSession(Network& net, std::uint64_t config_hash);

  // Registration order is serialization order; keep it construction order.
  void add(Checkpointable* part) { parts_.push_back(part); }

  void save(const std::string& path, EngineView eng);

  // False: no snapshot at `path` (start from scratch). Throws on a corrupt
  // or configuration-mismatched snapshot, and when the restored state
  // violates the snapshot's own summary invariants (see audit()).
  bool restore(const std::string& path, EngineView eng);

  // Request-granularity checkpoint reuse (the serving layer): seal a
  // snapshot to resident bytes without touching disk, and restore from
  // bytes held in memory. Identical format and invariant cross-checks as
  // the file paths above — save(path) is exactly save_bytes + an atomic
  // write, so a warm checkpoint kept in RAM and one reloaded from disk
  // after a crash restore byte-identically.
  std::string save_bytes(EngineView eng);
  void restore_bytes(std::string bytes, EngineView eng);

  // Live invariant checks at a quiescent boundary: packet conservation
  // (pool in_use == queued nodes + in-flight packet events), monotonic
  // event time (no pending event before now), non-negative / consistent
  // queue occupancy, and TTL bounds on every live packet.
  AuditReport audit(EngineView eng);

 private:
  void build_registry();
  void write_events(SnapshotWriter& w, const PacketCodec& codec,
                    const std::vector<Simulator::Event>& events) const;
  std::vector<Simulator::Event> read_events(SnapshotReader& r,
                                            const PacketCodec& codec) const;

  Network& net_;
  std::uint64_t config_hash_;
  std::vector<Checkpointable*> parts_;
  SinkRegistry registry_;
};

// The quiescent-boundary protocol every long run follows. Restores from
// spec.path first when spec.resume is set, then advances to `deadline` in
// segments of `step`; each segment is segment(t, w_end), by default
// eng.run_until(w_end). At every boundary, in this order: the progress
// heartbeat, the auditor (throws on a violation), stop at the deadline,
// a snapshot to spec.path (every boundary when spec.interval <= 0, else
// once at least spec.interval has passed since the last one), then the
// cancel poll. `session` may be null: no restore, audit or snapshot.
// Segmenting never changes results — repeated run_until calls execute the
// event sequence one call would. Returns false when spec.cancel stopped
// the run early (after that boundary's snapshot, when spec.path is set).
bool run_segments(EngineView eng, CheckpointSession* session,
                  const CheckpointSpec& spec, Time deadline, Time step,
                  const std::function<void(Time, Time)>& segment = {});

// Summary-section field indices, shared with the auditor's negative tests
// (snapshot_patch_u64 targets these by index).
inline constexpr std::uint32_t kSectionSummary = 0x53554d4d;  // "SUMM"
enum SummaryField : std::size_t {
  kSummaryNow = 0,
  kSummaryProcessed = 1,
  kSummaryPacketEvents = 2,
  kSummaryQueuedNodes = 3,
  kSummaryQueuedBytes = 4,
  kSummaryMaxHops = 5,
};

}  // namespace spineless::sim
