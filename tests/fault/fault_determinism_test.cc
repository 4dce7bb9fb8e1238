// A FaultPlan run — BFD detections, gray-link RNG draws, incremental table
// repairs, degradation samples — must replay byte-identically under any
// intra_jobs split. The reports are JSON strings with no wall-clock
// content, so the comparison is literal string equality.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/sharded_engine.h"
#include "sim/tcp.h"
#include "topo/builders.h"

namespace spineless::fault {
namespace {

using sim::FlowDriver;
using sim::Network;
using sim::NetworkConfig;
using sim::ShardedEngine;
using sim::TcpConfig;

constexpr Time kDeadline = 20 * units::kMillisecond;

struct FlowPrint {
  Time start = 0;
  Time finish = 0;
  std::int64_t retransmits = 0;
  std::int64_t timeouts = 0;
  bool operator==(const FlowPrint&) const = default;
};

struct RunPrint {
  std::uint64_t events = 0;
  std::int64_t queue_drops = 0;
  std::int64_t blackhole_drops = 0;
  std::int64_t gray_drops = 0;
  std::int64_t corrupt_drops = 0;
  std::int64_t delivered_bytes = 0;
  std::vector<FlowPrint> flows;
  std::string injector_json;
  std::string monitor_json;
  bool operator==(const RunPrint&) const = default;
};

RunPrint run_fault_scenario(int intra, int reactor_threads = 0) {
  const auto d = topo::make_dring(6, 2, 2);
  NetworkConfig cfg;
  cfg.mode = sim::RoutingMode::kShortestUnion;
  cfg.intra_jobs = intra;
  cfg.reactor_threads = reactor_threads;
  Network net(d.graph, cfg);
  FlowDriver driver(net, TcpConfig{});
  const auto plan = FaultPlan::parse(
      "flap link=0 down=2ms up=6ms;"
      " gray link=5 drop=0.05 corrupt=0.01 from=1ms until=9ms;"
      " degrade link=9 rate=0.5 from=3ms until=12ms",
      d.graph, 42);
  FaultInjector inj(net, plan, FaultInjectorConfig{});
  DegradationMonitor mon(net, 250 * units::kMicrosecond);

  const auto setup = [&](sim::Simulator& sim) {
    const int hosts = d.graph.total_servers();
    // Flows large enough to still be in flight across the gray window
    // (1-9ms) — otherwise the gray RNG never draws and the test is
    // vacuous.
    for (int i = 0; i < 16; ++i)
      driver.add_flow(sim, i % hosts, (i * 5 + 3) % hosts, 10'000'000,
                      i * units::kMicrosecond);
    inj.arm(sim, kDeadline);
    mon.start(sim, 0, kDeadline);
  };

  RunPrint out;
  if (intra == 1) {
    sim::Simulator sim;
    setup(sim);
    sim.run_until(kDeadline);
    out.events = sim.events_processed();
  } else {
    ShardedEngine engine(net);
    setup(engine.control());
    engine.run_until(kDeadline);
    out.events = engine.events_processed();
  }

  const auto stats = net.stats();
  out.queue_drops = stats.queue_drops;
  out.blackhole_drops = stats.blackhole_drops;
  out.gray_drops = stats.gray_drops;
  out.corrupt_drops = stats.corrupt_drops;
  out.delivered_bytes = stats.delivered_bytes;
  for (std::size_t i = 0; i < driver.num_flows(); ++i) {
    const auto& rec = driver.flow(static_cast<std::int32_t>(i)).record();
    out.flows.push_back(
        FlowPrint{rec.start, rec.finish, rec.retransmits, rec.timeouts});
  }
  JsonWriter report;
  inj.write_report(report, kDeadline);
  out.injector_json = report.str();
  out.monitor_json = mon.to_json();
  return out;
}

TEST(FaultDeterminism, PlanReplaysByteIdenticallyAcrossIntraJobs) {
  const RunPrint serial = run_fault_scenario(1);
  // The scenario must actually exercise the fault machinery, or the
  // determinism claim is vacuous.
  ASSERT_GT(serial.gray_drops + serial.corrupt_drops, 0);
  ASSERT_NE(serial.injector_json.find("\"t_routed_in\""), std::string::npos);

  for (const int intra : {2, 4, 7}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const RunPrint sharded = run_fault_scenario(intra);
    EXPECT_EQ(serial.injector_json, sharded.injector_json);
    EXPECT_EQ(serial.monitor_json, sharded.monitor_json);
    EXPECT_EQ(serial.events, sharded.events);
    ASSERT_EQ(serial.flows.size(), sharded.flows.size());
    for (std::size_t i = 0; i < serial.flows.size(); ++i) {
      SCOPED_TRACE("flow " + std::to_string(i));
      EXPECT_EQ(serial.flows[i], sharded.flows[i]);
    }
    EXPECT_EQ(serial, sharded);
  }

  // Fault plans over real reactor threads (forced past the single-core
  // auto resolve): the cell the TSAN pass interleaves.
  EXPECT_EQ(serial, run_fault_scenario(4, /*reactor_threads=*/4));
}

}  // namespace
}  // namespace spineless::fault
