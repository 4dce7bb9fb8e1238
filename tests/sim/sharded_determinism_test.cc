// The sharded conservative engine's core guarantee: for any intra_jobs,
// a sharded run executes the identical event sequence as the serial
// engine — same per-flow finish times and retransmits, same drop and
// delivery counters, same total event count, same monitor samples.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/fct_experiment.h"
#include "sim/monitor.h"
#include "sim/sharded_engine.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "workload/tm.h"

namespace spineless::sim {
namespace {

constexpr int kIntraSweep[] = {2, 4, 7};

// --- Full-experiment equality across topology families and modes ---------

core::FctResult run_cell(const topo::Graph& g, RoutingMode mode, int intra,
                         int reactor_threads = 0) {
  core::FctConfig cfg;
  cfg.net.mode = mode;
  cfg.net.intra_jobs = intra;
  cfg.net.reactor_threads = reactor_threads;
  cfg.flowgen.offered_load_bps =
      0.6e9 * static_cast<double>(g.total_servers());
  cfg.flowgen.window = units::kMillisecond;
  cfg.seed = 11;
  return core::run_fct_experiment(g, workload::RackTm::uniform(g), cfg);
}

void expect_identical(const core::FctResult& serial,
                      const core::FctResult& sharded, int intra) {
  SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
  EXPECT_EQ(serial.flows, sharded.flows);
  EXPECT_EQ(serial.completed, sharded.completed);
  EXPECT_EQ(serial.events, sharded.events);
  EXPECT_EQ(serial.queue_drops, sharded.queue_drops);
  EXPECT_EQ(serial.retransmits, sharded.retransmits);
  EXPECT_EQ(serial.max_queue_bytes, sharded.max_queue_bytes);
  EXPECT_DOUBLE_EQ(serial.median_ms(), sharded.median_ms());
  EXPECT_DOUBLE_EQ(serial.p99_ms(), sharded.p99_ms());
}

TEST(ShardedDeterminism, MatchesSerialOnDRing) {
  const auto g = topo::make_dring(5, 2, 4).graph;
  for (const auto mode : {RoutingMode::kEcmp, RoutingMode::kShortestUnion}) {
    const auto serial = run_cell(g, mode, 1);
    EXPECT_EQ(serial.intra_jobs, 1);
    for (const int intra : kIntraSweep)
      expect_identical(serial, run_cell(g, mode, intra), intra);
  }
}

TEST(ShardedDeterminism, MatchesSerialOnRrg) {
  const auto g = topo::make_rrg(10, 4, 4, /*seed=*/3);
  for (const auto mode : {RoutingMode::kEcmp, RoutingMode::kShortestUnion}) {
    const auto serial = run_cell(g, mode, 1);
    for (const int intra : kIntraSweep)
      expect_identical(serial, run_cell(g, mode, intra), intra);
  }
}

TEST(ShardedDeterminism, MatchesSerialOnLeafSpine) {
  const auto g = topo::make_leaf_spine(6, 2);
  const auto serial = run_cell(g, RoutingMode::kEcmp, 1);
  for (const int intra : kIntraSweep)
    expect_identical(serial, run_cell(g, RoutingMode::kEcmp, intra), intra);
}

// On a single-core host the auto resolve backs every shard with the
// caller thread; forcing real threads must not change a byte. One thread
// per shard is the cell the TSAN preset actually interleaves — without the
// override, a 1-CPU CI box would never exercise the cross-thread lane
// handoff — and fewer threads than shards, with uneven blocks, run several
// shards through each window in turn on one thread.
struct ThreadSplit {
  int intra;
  int threads;
};
constexpr ThreadSplit kThreadSplits[] = {
    {2, 2}, {4, 4}, {7, 7}, {4, 2}, {7, 3}};

TEST(ShardedDeterminism, ForcedReactorThreadsMatchSerial) {
  const auto g = topo::make_dring(5, 2, 4).graph;
  const auto serial = run_cell(g, RoutingMode::kEcmp, 1);
  for (const ThreadSplit& split : kThreadSplits) {
    SCOPED_TRACE("threads=" + std::to_string(split.threads));
    expect_identical(serial,
                     run_cell(g, RoutingMode::kEcmp, split.intra,
                              /*reactor_threads=*/split.threads),
                     split.intra);
  }
}

// --- Exact per-flow and per-sample equality under global events ----------

struct FlowPrint {
  Time start = 0;
  Time finish = 0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  bool operator==(const FlowPrint&) const = default;
};

struct RunPrint {
  std::vector<FlowPrint> flows;
  std::int64_t queue_drops = 0;
  std::int64_t ttl_drops = 0;
  std::int64_t no_route_drops = 0;
  std::int64_t delivered = 0;
  std::uint64_t events = 0;
  std::vector<QueueMonitor::Sample> samples;
  ShardedEngine::Metrics metrics;  // sharded runs only
};

// A mid-run link failure (blackhole + reconvergence) plus a periodic
// whole-network monitor: both are kShardGlobal sinks, so this exercises
// the engine's exact global interleaving (run_until_key), not just the
// steady-state window protocol.
RunPrint run_failure_scenario(int intra, int reactor_threads = 0) {
  const auto d = topo::make_dring(6, 2, 2);
  NetworkConfig cfg;
  cfg.mode = RoutingMode::kShortestUnion;
  cfg.intra_jobs = intra;
  cfg.reactor_threads = reactor_threads;
  Network net(d.graph, cfg);
  FlowDriver driver(net, TcpConfig{});
  QueueMonitor mon(net, 50 * units::kMicrosecond);

  const auto setup = [&](Simulator& sim) {
    const auto hosts = d.graph.total_servers();
    for (int i = 0; i < 16; ++i) {
      driver.add_flow(sim, i % hosts, (i * 5 + 3) % hosts, 200'000,
                      i * units::kMicrosecond);
    }
    net.schedule_link_failure(sim, /*link=*/0, 300 * units::kMicrosecond,
                              200 * units::kMicrosecond);
    mon.start(sim, 0, 2 * units::kMillisecond);
  };
  const Time deadline = 5 * units::kSecond;

  RunPrint out;
  if (intra == 1) {
    Simulator sim;
    setup(sim);
    sim.run_until(deadline);
    out.events = sim.events_processed();
  } else {
    ShardedEngine engine(net);
    EXPECT_EQ(engine.num_shards(), net.num_shards());
    setup(engine.control());
    engine.run_until(deadline);
    out.events = engine.events_processed();
    out.metrics = engine.metrics();
  }

  for (std::size_t i = 0; i < driver.num_flows(); ++i) {
    const auto& rec = driver.flow(static_cast<std::int32_t>(i)).record();
    out.flows.push_back(
        FlowPrint{rec.start, rec.finish, rec.retransmits, rec.timeouts});
  }
  const auto stats = net.stats();
  out.queue_drops = stats.queue_drops;
  out.ttl_drops = stats.ttl_drops;
  out.no_route_drops = stats.no_route_drops;
  out.delivered = stats.delivered;
  out.samples = mon.samples();
  return out;
}

TEST(ShardedDeterminism, FailureAndMonitorInterleaveExactly) {
  const RunPrint serial = run_failure_scenario(1);
  ASSERT_EQ(serial.flows.size(), 16u);
  for (const int intra : kIntraSweep) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const RunPrint sharded = run_failure_scenario(intra);
    EXPECT_EQ(serial.events, sharded.events);
    EXPECT_EQ(serial.queue_drops, sharded.queue_drops);
    EXPECT_EQ(serial.ttl_drops, sharded.ttl_drops);
    EXPECT_EQ(serial.no_route_drops, sharded.no_route_drops);
    EXPECT_EQ(serial.delivered, sharded.delivered);
    ASSERT_EQ(serial.flows.size(), sharded.flows.size());
    for (std::size_t i = 0; i < serial.flows.size(); ++i) {
      SCOPED_TRACE("flow " + std::to_string(i));
      EXPECT_EQ(serial.flows[i], sharded.flows[i]);
    }
    ASSERT_EQ(serial.samples.size(), sharded.samples.size());
    for (std::size_t i = 0; i < serial.samples.size(); ++i) {
      EXPECT_EQ(serial.samples[i].t, sharded.samples[i].t);
      EXPECT_EQ(serial.samples[i].total_bytes, sharded.samples[i].total_bytes);
      EXPECT_EQ(serial.samples[i].max_bytes, sharded.samples[i].max_bytes);
    }
  }
}

// The same failure + monitor scenario with real threads forced:
// global (kShardGlobal) sinks rendezvous across actual threads here, so
// this is where TSAN sees the rendezvous and the per-flow and
// per-sample bytes still may not move.
TEST(ShardedDeterminism, FailureInterleaveWithForcedReactorThreads) {
  const RunPrint serial = run_failure_scenario(1);
  const RunPrint threaded = run_failure_scenario(4, /*reactor_threads=*/4);
  EXPECT_EQ(serial.events, threaded.events);
  EXPECT_EQ(serial.queue_drops, threaded.queue_drops);
  EXPECT_EQ(serial.ttl_drops, threaded.ttl_drops);
  EXPECT_EQ(serial.no_route_drops, threaded.no_route_drops);
  EXPECT_EQ(serial.delivered, threaded.delivered);
  ASSERT_EQ(serial.flows.size(), threaded.flows.size());
  for (std::size_t i = 0; i < serial.flows.size(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    EXPECT_EQ(serial.flows[i], threaded.flows[i]);
  }
  ASSERT_EQ(serial.samples.size(), threaded.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(serial.samples[i].t, threaded.samples[i].t);
    EXPECT_EQ(serial.samples[i].total_bytes, threaded.samples[i].total_bytes);
    EXPECT_EQ(serial.samples[i].max_bytes, threaded.samples[i].max_bytes);
  }
}

// The engine's own counters are a function of the event streams too: the
// window sequence and the cross-shard handoffs may not depend on how many
// threads back the shards.
TEST(ShardedDeterminism, EngineCountersMatchAcrossReactorThreads) {
  for (const ThreadSplit& split : kThreadSplits) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(split.intra) +
                 " threads=" + std::to_string(split.threads));
    const ShardedEngine::Metrics one =
        run_failure_scenario(split.intra, /*reactor_threads=*/1).metrics;
    const ShardedEngine::Metrics many =
        run_failure_scenario(split.intra, split.threads).metrics;
    EXPECT_GT(one.handoffs, 0u);
    EXPECT_EQ(one.windows, many.windows);
    EXPECT_EQ(one.handoffs, many.handoffs);
  }
}

// Repeated run_until calls on the engine (the incremental-deadline pattern
// tests and monitors use) must land on the same state as one big run.
TEST(ShardedDeterminism, IncrementalDeadlinesMatchSingleRun) {
  const auto run_with = [](bool incremental) {
    const auto g = topo::make_leaf_spine(4, 2);
    NetworkConfig cfg;
    cfg.intra_jobs = 3;
    Network net(g, cfg);
    FlowDriver driver(net, TcpConfig{});
    ShardedEngine engine(net);
    for (int i = 0; i < 6; ++i)
      driver.add_flow(engine.control(), i % g.total_servers(),
                      (i + 3) % g.total_servers(), 100'000, 0);
    if (incremental) {
      for (Time t = units::kMillisecond; t <= 50 * units::kMillisecond;
           t += units::kMillisecond) {
        engine.run_until(t);
      }
    } else {
      engine.run_until(50 * units::kMillisecond);
    }
    std::vector<Time> finishes;
    for (std::size_t i = 0; i < driver.num_flows(); ++i)
      finishes.push_back(
          driver.flow(static_cast<std::int32_t>(i)).record().finish);
    return std::pair(engine.events_processed(), finishes);
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

}  // namespace
}  // namespace spineless::sim
