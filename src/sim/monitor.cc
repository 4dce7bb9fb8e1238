#include "sim/monitor.h"

#include <algorithm>

namespace spineless::sim {

void QueueMonitor::start(Simulator& sim, Time from, Time until) {
  SPINELESS_CHECK(until > from);
  until_ = until;
  sim.schedule_at(from, this, 0);
}

void QueueMonitor::on_event(Simulator& sim, std::uint64_t /*ctx*/) {
  Sample s;
  s.t = sim.now();
  // Network exposes per-link occupancy through the Link objects; walk them
  // via the utilization API's sibling: occupancy is queued_bytes() now.
  // (QueueMonitor is a friend-free observer: Network lends the counts.)
  const auto occupancy = net_.queue_occupancy();
  for (const auto bytes : occupancy) {
    s.total_bytes += bytes;
    s.max_bytes = std::max(s.max_bytes, bytes);
  }
  samples_.push_back(s);
  if (sim.now() + interval_ <= until_) sim.schedule_after(interval_, this, 0);
}

template <class Io, class Self>
void QueueMonitor::fields(Io& io, Self& s) {
  io.i64(s.until_);
  io.seq(s.samples_, [](auto& io, auto& x) {
    io.i64(x.t);
    io.i64(x.total_bytes);
    io.i64(x.max_bytes);
  });
}

void QueueMonitor::save_state(SnapshotWriter& w) const { fields(w, *this); }

void QueueMonitor::load_state(SnapshotReader& r) { fields(r, *this); }

Summary QueueMonitor::max_queue_pkts() const {
  Summary s;
  for (const auto& sample : samples_)
    s.add(static_cast<double>(sample.max_bytes) / kDataPacketBytes);
  return s;
}

}  // namespace spineless::sim
