// Periodic sampling of queue occupancy during a simulation — the htsim-
// style monitoring used to study queue dynamics (and to show DCTCP holding
// queues at the marking threshold while Reno saws between full and empty).
//
// A QueueMonitor schedules itself every `interval` and records, per sample,
// the total and maximum switch-switch queue occupancy. Samples live in
// memory; max_queue_pkts() summarizes them.
#pragma once

#include <vector>

#include "sim/checkpoint.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace spineless::sim {

class QueueMonitor : public EventSink, public Checkpointable {
 public:
  struct Sample {
    Time t = 0;
    std::int64_t total_bytes = 0;  // across all switch-switch queues
    std::int64_t max_bytes = 0;    // hottest single queue
  };

  QueueMonitor(Network& net, Time interval)
      : net_(net), interval_(interval) {
    SPINELESS_CHECK(interval > 0);
    // A sample reads every queue in the network, so in sharded runs the
    // monitor must fire barrier-synchronized between shard windows.
    net.register_global_sink(this);
  }

  // Starts sampling at `from` and re-arms every interval until `until`.
  void start(Simulator& sim, Time from, Time until);

  void on_event(Simulator& sim, std::uint64_t ctx) override;

  // Checkpointable.
  void collect_sinks(SinkRegistry& reg) override {
    reg.add(this, CtxKind::kPlain);
  }
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  const std::vector<Sample>& samples() const noexcept { return samples_; }
  // Distribution of the per-sample hottest queue, in packets.
  Summary max_queue_pkts() const;

 private:
  Network& net_;
  Time interval_;
  Time until_ = 0;
  std::vector<Sample> samples_;

  template <class Io, class Self>
  static void fields(Io& io, Self& self);
};

}  // namespace spineless::sim
