// Graceful-degradation metrics: what the network actually delivered while
// faults were active.
//
// The DegradationMonitor samples the network's cumulative fault counters
// (delivered payload bytes, blackholed / gray-dropped / checksum-discarded
// / unroutable packets) on a fixed cadence, giving a goodput timeline
// across each fault event: the dip when a link blackholes, the partial
// loss under a gray failure, and the recovery after restore. Pair with
// FaultInjector::report for the control-plane view (detection and outage
// windows); together they answer "how gracefully did the fabric degrade".
//
// Global sink (samples read whole-network state), same determinism story
// as QueueMonitor: samples are byte-identical for any intra_jobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace spineless::sim {
class FlowDriver;
}

namespace spineless::fault {

using sim::Simulator;

class DegradationMonitor : public sim::EventSink, public sim::Checkpointable {
 public:
  struct Sample {
    Time t = 0;
    // Cumulative since the start of the run.
    std::int64_t delivered_bytes = 0;
    std::int64_t blackhole_drops = 0;
    std::int64_t gray_drops = 0;
    std::int64_t corrupt_drops = 0;
    std::int64_t no_route_drops = 0;
  };

  DegradationMonitor(sim::Network& net, Time interval);

  // Samples at `from` and every interval after, until `until`.
  void start(Simulator& sim, Time from, Time until);

  void on_event(Simulator& sim, std::uint64_t ctx) override;

  // sim::Checkpointable.
  void collect_sinks(sim::SinkRegistry& reg) override {
    reg.add(this, sim::CtxKind::kPlain);
  }
  void save_state(sim::SnapshotWriter& w) const override;
  void load_state(sim::SnapshotReader& r) override;

  const std::vector<Sample>& samples() const noexcept { return samples_; }

  // Mean goodput (payload bits per second actually delivered) between the
  // samples nearest `from` and `to` — e.g. pre-fault vs. post-restore to
  // measure recovery. Returns 0 when fewer than two samples cover the
  // range.
  double mean_goodput_bps(Time from, Time to) const;

  // Flows that hit at least one RTO but still completed — rescued by the
  // retransmission timer rather than fast recovery.
  static std::size_t flows_rescued_by_rto(const sim::FlowDriver& driver);

  // "t_ps,delivered_bytes,blackhole,gray,corrupt,no_route" per line.
  std::string to_csv() const;
  // Timeline as JSON (no wall times: byte-identical serial vs. sharded).
  std::string to_json() const;

 private:
  sim::Network& net_;
  Time interval_;
  Time until_ = 0;
  std::vector<Sample> samples_;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

}  // namespace spineless::fault
