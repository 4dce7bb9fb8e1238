#include "flowsim/flow_level_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/throughput_experiment.h"
#include "sim/tcp.h"
#include "topo/builders.h"
#include "util/error.h"
#include "util/rng.h"

namespace spineless::flowsim {
namespace {

topo::Graph two_tor() {
  topo::Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 4);
  g.set_servers(1, 4);
  return g;
}

TEST(FlowLevelSim, SingleFlowFinishesAtLineRate) {
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  sim.add_flow(0, 4, 10'000'000, 0, {0, 1});  // 10 MB = 8 ms at 10G
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_NEAR(units::to_millis(sim.results()[0].fct()), 8.0, 0.01);
}

TEST(FlowLevelSim, TwoEqualFlowsShareThenNothing) {
  // Both start at 0 with equal sizes: each runs at 5G and they finish
  // together at 2x the solo time.
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  sim.add_flow(0, 4, 5'000'000, 0, {0, 1});
  sim.add_flow(1, 5, 5'000'000, 0, {0, 1});
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_NEAR(units::to_millis(sim.results()[0].fct()), 8.0, 0.01);
  EXPECT_NEAR(units::to_millis(sim.results()[1].fct()), 8.0, 0.01);
}

TEST(FlowLevelSim, ShortFlowDepartsAndLongFlowSpeedsUp) {
  // Flow A: 10 MB; flow B: 2.5 MB. Shared 10G until B leaves at t = 4 ms
  // (2.5 MB at 5G), then A runs at 10G: total A time = 4 + 6 = 10 ms.
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  sim.add_flow(0, 4, 10'000'000, 0, {0, 1});
  sim.add_flow(1, 5, 2'500'000, 0, {0, 1});
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_NEAR(units::to_millis(sim.results()[1].fct()), 4.0, 0.01);
  EXPECT_NEAR(units::to_millis(sim.results()[0].fct()), 10.0, 0.02);
}

TEST(FlowLevelSim, LateArrivalSlowsTheIncumbent) {
  // A (10 MB) alone for 4 ms (5 MB done), then B (5 MB) arrives: both at
  // 5G. A needs 8 more ms -> finishes at 12 ms; B finishes at 4+8=12 ms.
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  sim.add_flow(0, 4, 10'000'000, 0, {0, 1});
  sim.add_flow(1, 5, 5'000'000, 4 * units::kMillisecond, {0, 1});
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_NEAR(units::to_millis(sim.results()[0].fct()), 12.0, 0.02);
  EXPECT_NEAR(units::to_millis(sim.results()[1].fct()), 8.0, 0.02);
}

TEST(FlowLevelSim, NicBoundIncast) {
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  for (int i = 0; i < 3; ++i)
    sim.add_flow(i, 4, 1'000'000, 0, {0, 1});  // all to host 4
  EXPECT_EQ(sim.run(), 3u);
  // 3 MB through one 10G NIC: last finisher at 2.4 ms.
  double last = 0;
  for (const auto& r : sim.results())
    last = std::max(last, units::to_millis(r.fct()));
  EXPECT_NEAR(last, 2.4, 0.01);
}

TEST(FlowLevelSim, DeadlineLeavesFlowsIncomplete) {
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  sim.add_flow(0, 4, 100'000'000, 0, {0, 1});  // 80 ms at line rate
  EXPECT_EQ(sim.run(10 * units::kMillisecond), 0u);
  EXPECT_FALSE(sim.results()[0].completed());
}

TEST(FlowLevelSim, ValidatesPathsEagerly) {
  const auto g = two_tor();
  FlowLevelSimulator sim(g, 10e9);
  EXPECT_THROW(sim.add_flow(0, 4, 1000, 0, {1, 0}), Error);  // wrong ends
  EXPECT_THROW(sim.add_flow(0, 4, 0, 0, {0, 1}), Error);
}

TEST(FlowLevelSim, TracksPacketSimOnSharedBottleneck) {
  // Cross-fidelity check: the flow-level FCTs should approximate the
  // packet simulator's within ~20% on a clean shared-bottleneck scenario.
  const auto g = two_tor();

  FlowLevelSimulator fluid(g, 10e9);
  for (int i = 0; i < 4; ++i)
    fluid.add_flow(i, 4 + i, 4'000'000, 0, {0, 1});
  ASSERT_EQ(fluid.run(), 4u);
  const double fluid_last = fluid.fct_ms().max();

  sim::Simulator psim;
  sim::NetworkConfig cfg;
  sim::Network net(g, cfg);
  sim::FlowDriver driver(net, sim::TcpConfig{});
  for (int i = 0; i < 4; ++i) driver.add_flow(psim, i, 4 + i, 4'000'000, 0);
  psim.run_until(60 * units::kSecond);
  ASSERT_EQ(driver.completed_flows(), 4u);
  const double packet_last = driver.fct_ms().max();

  EXPECT_NEAR(fluid_last, packet_last, 0.2 * packet_last);
}

TEST(FlowLevelSim, GoldenFinishTimesOnRrg) {
  // Pins every finish time of a 300-flow ECMP workload on a fixed RRG, so
  // any change to the stepper or its max-min solver that moves a single
  // finish time by one picosecond fails here.
  const topo::Graph g = topo::make_rrg(32, 6, 4, 17);
  const core::PathSampler paths(g, sim::RoutingMode::kEcmp, 2);
  Rng rng(0xf10f);
  FlowLevelSimulator fluid(g, 10e9);
  const auto hosts = static_cast<std::uint64_t>(g.total_servers());
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<HostId>(rng.uniform(hosts));
    auto dst = static_cast<HostId>(rng.uniform(hosts - 1));
    if (dst >= src) ++dst;
    const auto bytes =
        static_cast<std::int64_t>(10'000 + rng.uniform(2'000'000));
    const auto start = static_cast<Time>(rng.uniform(5 * units::kMillisecond));
    fluid.add_flow(src, dst, bytes, start,
                   paths.sample(g.tor_of_host(src), g.tor_of_host(dst), rng));
  }
  ASSERT_EQ(fluid.run(), 300u);
  std::uint64_t h = 0;
  for (const auto& r : fluid.results())
    h = splitmix64(h ^ static_cast<std::uint64_t>(r.finish));
  EXPECT_EQ(h, 12427917407587328439ull);
}

}  // namespace
}  // namespace spineless::flowsim
