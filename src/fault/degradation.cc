#include "fault/degradation.h"

#include "sim/tcp.h"

namespace spineless::fault {

DegradationMonitor::DegradationMonitor(sim::Network& net, Time interval)
    : net_(net), interval_(interval) {
  SPINELESS_CHECK(interval > 0);
  // A sample sums every shard's counter stripe and every link's stats, so
  // it must fire barrier-synchronized between shard windows.
  net.register_global_sink(this);
}

void DegradationMonitor::start(Simulator& sim, Time from, Time until) {
  SPINELESS_CHECK(until > from);
  until_ = until;
  sim.schedule_at(from, this, 0);
}

void DegradationMonitor::on_event(Simulator& sim, std::uint64_t /*ctx*/) {
  const sim::Network::NetStats stats = net_.stats();
  Sample s;
  s.t = sim.now();
  s.delivered_bytes = stats.delivered_bytes;
  s.blackhole_drops = stats.blackhole_drops;
  s.gray_drops = stats.gray_drops;
  s.corrupt_drops = stats.corrupt_drops;
  s.no_route_drops = stats.no_route_drops;
  samples_.push_back(s);
  if (sim.now() + interval_ <= until_) sim.schedule_after(interval_, this, 0);
}

template <class Io, class Self>
void DegradationMonitor::fields(Io& io, Self& s) {
  io.i64(s.until_);
  io.seq(s.samples_, [](auto& io, auto& x) {
    io.i64(x.t);
    io.i64(x.delivered_bytes);
    io.i64(x.blackhole_drops);
    io.i64(x.gray_drops);
    io.i64(x.corrupt_drops);
    io.i64(x.no_route_drops);
  });
}

void DegradationMonitor::save_state(sim::SnapshotWriter& w) const {
  fields(w, *this);
}

void DegradationMonitor::load_state(sim::SnapshotReader& r) {
  fields(r, *this);
}

double DegradationMonitor::mean_goodput_bps(Time from, Time to) const {
  // The last sample at or before each bound; goodput is the delivered-byte
  // delta over the actual sample-time delta.
  const Sample* lo = nullptr;
  const Sample* hi = nullptr;
  for (const Sample& s : samples_) {
    if (s.t <= from) lo = &s;
    if (s.t <= to) hi = &s;
  }
  if (lo == nullptr || hi == nullptr || hi->t <= lo->t) return 0;
  return static_cast<double>(hi->delivered_bytes - lo->delivered_bytes) * 8.0 /
         units::to_seconds(hi->t - lo->t);
}

std::size_t DegradationMonitor::flows_rescued_by_rto(
    const sim::FlowDriver& driver) {
  std::size_t rescued = 0;
  for (std::size_t i = 0; i < driver.num_flows(); ++i) {
    const sim::FlowRecord& r = driver.flow(i).record();
    if (r.completed() && r.timeouts > 0) ++rescued;
  }
  return rescued;
}

}  // namespace spineless::fault
