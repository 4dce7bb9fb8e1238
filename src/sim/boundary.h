// Boundary devices for hybrid packet/fluid co-simulation
// (core/hybrid_experiment): a BoundarySource converts a fluid max-min rate
// into paced packet arrivals inside the packet region, and a BoundarySink
// aggregates packet deliveries back into the fluid model's per-window
// demand accounting.
//
// Determinism. A source is an ordinary EventSink with a Network-assigned
// (oid, shard) identity, so its pacing events carry the same priority keys
// in serial and sharded runs. Pacing is pure integer arithmetic: the
// inter-packet gap is units::serialization_time(kDataPacketBytes, rate) —
// a token bucket with a one-packet cap in bits x kSecond fixed point — and
// the first fire of each program() is offset by a splitmix64 phase keyed by
// (seed, boundary link, flow), so two sources at the same rate do not
// inject in lockstep yet every run places the same packets at the same
// picoseconds. Reprogramming only happens at quiescent window boundaries;
// the epoch tag in each event's ctx makes fires scheduled under a previous
// program stale no-ops instead of mixed-rate artifacts.
#pragma once

#include <cstdint>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/snapshot.h"

namespace spineless::sim {

class BoundarySource : public EventSink, public Endpoint {
 public:
  // Registers flow_id with the network (this source, paired with `sink`)
  // and draws a deterministic event identity — construction order must be
  // fixed, exactly like TcpSource. phase_key is the (seed, boundary link,
  // flow) hash the first-fire offset is derived from.
  BoundarySource(Network& net, std::int32_t flow_id, topo::HostId src,
                 topo::HostId dst, Endpoint* sink, std::uint64_t phase_key);

  // Window-boundary reprogramming from the hybrid loop (control context,
  // engine quiescent): pace `remaining_bytes` of payload at `rate_bps`.
  // Bumps the epoch; pending fires from earlier programs die silently.
  // rate_bps <= 0 or remaining_bytes <= 0 pauses the source. The first fire
  // lands at max(now, not_before) + phase, so a flow whose nominal start
  // falls inside the upcoming window begins pacing at its exact start
  // rather than the window edge.
  void program(Simulator& sim, std::int64_t rate_bps,
               std::int64_t remaining_bytes, Time not_before = 0);

  // Boundary-fault re-pin (control context, engine quiescent): moves the
  // source to a new (src, dst) gateway pairing when its cut link failed.
  // The oid and flow_id are construction-order invariants and stay put;
  // the shard follows the new src host, and the pacing phase is re-keyed
  // (the caller derives phase_key from (seed, new cut link, flow,
  // generation)) so the packet stream stays a pure function of
  // (seed, plan). Bumps the epoch — in-flight fires from the old pinning
  // become stale no-ops — and pauses the source until the next program().
  void retarget(topo::HostId src, topo::HostId dst, std::uint64_t phase_key);

  topo::HostId src() const noexcept { return src_; }
  topo::HostId dst() const noexcept { return dst_; }
  std::int64_t packets_sent() const noexcept { return packets_sent_; }

  void on_event(Simulator& sim, std::uint64_t ctx) override;
  // Boundary flows are unidirectional (no ACKs); nothing ever arrives here.
  void on_packet(Simulator&, const Packet&) override {}

  // Checkpoint support (driven by the hybrid loop's HYBR section).
  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  void transmit(Simulator& sim);

  Network& net_;
  std::int32_t flow_id_;
  topo::HostId src_, dst_;
  topo::NodeId dst_tor_;
  std::uint64_t phase_key_;

  std::uint64_t epoch_ = 0;      // current program; event ctx must match
  std::int64_t rate_bps_ = 0;
  std::int64_t remaining_ = 0;   // payload bytes left in this program
  Time interval_ = 0;            // inter-packet gap at rate_bps_
  std::int64_t seq_ = 0;         // next packet index (monotonic across programs)
  std::int64_t packets_sent_ = 0;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

// Counts delivered payload bytes toward a fixed flow-size target and pins
// the exact packet-level completion time. Runs in the destination host's
// shard; the hybrid loop reads it only between windows.
class BoundarySink : public Endpoint {
 public:
  explicit BoundarySink(std::int64_t target_bytes) : target_(target_bytes) {}

  void on_packet(Simulator& sim, const Packet& pkt) override;

  std::int64_t delivered() const noexcept { return delivered_; }
  bool completed() const noexcept { return finish_ >= 0; }
  Time finish() const noexcept { return finish_; }

  void save_state(SnapshotWriter& w) const;
  void load_state(SnapshotReader& r);

 private:
  std::int64_t target_;
  std::int64_t delivered_ = 0;
  Time finish_ = -1;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

}  // namespace spineless::sim
