#include "sim/boundary.h"

#include <algorithm>

#include "util/rng.h"

namespace spineless::sim {

BoundarySource::BoundarySource(Network& net, std::int32_t flow_id,
                               topo::HostId src, topo::HostId dst,
                               Endpoint* sink, std::uint64_t phase_key)
    : net_(net),
      flow_id_(flow_id),
      src_(src),
      dst_(dst),
      dst_tor_(net.graph().tor_of_host(dst)),
      phase_key_(phase_key) {
  SPINELESS_CHECK(src != dst);
  net_.register_flow(flow_id, this, sink);
  set_event_identity(net.next_oid(), net.shard_of_host(src));
}

void BoundarySource::retarget(topo::HostId src, topo::HostId dst,
                              std::uint64_t phase_key) {
  SPINELESS_CHECK(src != dst);
  src_ = src;
  dst_ = dst;
  dst_tor_ = net_.graph().tor_of_host(dst);
  phase_key_ = phase_key;
  // Move to the new src host's shard WITHOUT resetting the priority
  // counter: set_event_identity zeroes it, and a reset would re-issue
  // (oid, counter) keys that stale pending fires may still hold.
  const std::uint64_t prio = prio_state();
  set_event_identity(event_oid(), net_.shard_of_host(src_));
  restore_prio_state(prio);
  ++epoch_;
  rate_bps_ = 0;
  remaining_ = 0;
}

void BoundarySource::program(Simulator& sim, std::int64_t rate_bps,
                             std::int64_t remaining_bytes, Time not_before) {
  ++epoch_;
  rate_bps_ = rate_bps;
  remaining_ = remaining_bytes;
  if (rate_bps_ <= 0 || remaining_ <= 0) return;
  interval_ = units::serialization_time(kDataPacketBytes, rate_bps_);
  // First-fire phase in [0, interval): splitmix64 of the (seed, boundary
  // link, flow) key mixed with the epoch, so restarts of the same flow in
  // later windows do not all fire at the window edge.
  const Time phase = static_cast<Time>(
      splitmix64(phase_key_ + epoch_) % static_cast<std::uint64_t>(interval_));
  const Time base = not_before > sim.now() ? not_before : sim.now();
  sim.schedule_at(base + phase, this, epoch_);
}

void BoundarySource::on_event(Simulator& sim, std::uint64_t ctx) {
  if (ctx != epoch_) return;  // stale fire from an earlier program
  if (remaining_ <= 0) return;
  transmit(sim);
  remaining_ -= std::min<std::int64_t>(kMss, remaining_);
  if (remaining_ > 0) sim.schedule_after(interval_, this, epoch_);
}

void BoundarySource::transmit(Simulator& sim) {
  Packet pkt;
  pkt.src_host = src_;
  pkt.dst_host = dst_;
  pkt.dst_tor = dst_tor_;
  pkt.flow_id = flow_id_;
  pkt.seq = seq_++;
  pkt.size_bytes = kDataPacketBytes;
  pkt.is_ack = false;
  pkt.ts = sim.now();
  ++packets_sent_;
  net_.inject_from_host(sim, pkt);
}

template <class Io, class Self>
void BoundarySource::fields(Io& io, Self& s) {
  // Endpoints and phase key are snapshot state since a boundary-fault
  // retarget() can have moved them off their construction-time values.
  io.i64(s.src_);
  io.i64(s.dst_);
  if constexpr (!Io::kSaving) {
    s.dst_tor_ = s.net_.graph().tor_of_host(s.dst_);
    // The shard must follow the restored src — the reconstructed source
    // was built at its pre-fault pinning. Preserve the priority counter
    // the PRIO section already restored (set_event_identity resets it).
    const std::uint64_t prio = s.prio_state();
    s.set_event_identity(s.event_oid(), s.net_.shard_of_host(s.src_));
    s.restore_prio_state(prio);
  }
  io.u64(s.phase_key_);
  io.u64(s.epoch_);
  io.i64(s.rate_bps_);
  io.i64(s.remaining_);
  io.i64(s.interval_);
  io.i64(s.seq_);
  io.i64(s.packets_sent_);
}

void BoundarySource::save_state(SnapshotWriter& w) const { fields(w, *this); }

void BoundarySource::load_state(SnapshotReader& r) { fields(r, *this); }

void BoundarySink::on_packet(Simulator& sim, const Packet& pkt) {
  SPINELESS_DCHECK(!pkt.is_ack);
  static_cast<void>(pkt);  // only examined by the debug assertion
  if (finish_ >= 0) return;  // duplicate tail after completion
  delivered_ += std::min<std::int64_t>(kMss, target_ - delivered_);
  if (delivered_ >= target_) finish_ = sim.now();
}

template <class Io, class Self>
void BoundarySink::fields(Io& io, Self& s) {
  io.expect(s.target_, "boundary sink target mismatch on restore");
  io.i64(s.delivered_);
  io.i64(s.finish_);
}

void BoundarySink::save_state(SnapshotWriter& w) const { fields(w, *this); }

void BoundarySink::load_state(SnapshotReader& r) { fields(r, *this); }

}  // namespace spineless::sim
