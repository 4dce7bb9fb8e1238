// The packet-simulator event-throughput scenario that bench_micro and
// bench_scaling measure: 50 TCP flows of 200 KB between random hosts of a
// dring(5,2,4), run for one simulated second. The event stream is the same
// for every intra_jobs (80214 events, all 50 flows complete), so the
// events/s figure isolates the engine's cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <type_traits>

#include "sim/sharded_engine.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace spineless::bench {

inline constexpr const char* kEventThroughputScenario =
    "simulator_event_throughput dring(5,2,4) 50 flows x 200KB, 1s";

struct EventThroughput {
  int intra_jobs = 1;
  std::uint64_t events = 0;
  std::size_t completed = 0;
  double wall_s = 0;   // the event loop alone, not the set-up
  int cores_used = 1;  // threads actually backing the shards
  sim::ShardedEngine::Metrics metrics;  // sharded engine only

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

// One run of the scenario on the engine intra_jobs selects.
inline EventThroughput run_event_throughput(int intra_jobs) {
  const auto d = topo::make_dring(5, 2, 4);
  sim::NetworkConfig cfg;
  cfg.intra_jobs = intra_jobs;
  sim::Network net(d.graph, cfg);
  sim::FlowDriver driver(net, sim::TcpConfig{});
  Rng rng(7);
  return sim::with_engine(net, [&](auto& engine, sim::Simulator& front) {
    const auto hosts = static_cast<std::uint64_t>(d.graph.total_servers());
    for (int i = 0; i < 50; ++i) {
      const auto src = static_cast<topo::HostId>(rng.uniform(hosts));
      auto dst = static_cast<topo::HostId>(rng.uniform(hosts));
      if (dst == src) dst = (dst + 1) % d.graph.total_servers();
      driver.add_flow(front, src, dst, 200'000, 0);
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_until(units::kSecond);
    EventThroughput r;
    r.intra_jobs = intra_jobs;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    r.events = engine.events_processed();
    r.completed = driver.completed_flows();
    if constexpr (std::is_same_v<std::decay_t<decltype(engine)>,
                                 sim::ShardedEngine>) {
      r.metrics = engine.metrics();
      r.cores_used = engine.reactor_threads();
    }
    return r;
  });
}

// One warm-up run primes caches and the allocator; the fastest of the
// timed runs is reported (the minimum-interference run is the repeatable
// one on a shared machine).
inline EventThroughput best_event_throughput(int intra_jobs, int timed_runs) {
  run_event_throughput(intra_jobs);  // warm-up
  EventThroughput best;
  for (int run = 0; run < timed_runs; ++run) {
    const EventThroughput r = run_event_throughput(intra_jobs);
    if (run == 0 || r.wall_s < best.wall_s) best = r;
  }
  return best;
}

}  // namespace spineless::bench
