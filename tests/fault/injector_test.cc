// In-band failure detection: BFD hello/hold timing, gray-failure
// (non-)detection, checksum discard, and port degradation.
#include "fault/injector.h"

#include <gtest/gtest.h>

#include "fault/degradation.h"
#include "sim/tcp.h"
#include "topo/builders.h"

namespace spineless::fault {
namespace {

using sim::FlowDriver;
using sim::NetworkConfig;
using sim::TcpConfig;

topo::Graph diamond() {
  topo::Graph g(4);
  g.add_link(0, 1);  // link 0
  g.add_link(0, 2);  // link 1
  g.add_link(1, 3);  // link 2
  g.add_link(2, 3);  // link 3
  g.set_servers(0, 2);
  g.set_servers(3, 2);
  return g;
}

topo::Graph pair_graph() {
  topo::Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  return g;
}

TEST(FaultInjector, OutageWindowIsDetectionPlusRepairDelay) {
  const topo::Graph g = diamond();
  NetworkConfig ncfg;
  sim::Network net(g, ncfg);
  const auto plan = FaultPlan::parse("flap link=0 down=2ms up=8ms", g, 1);
  FaultInjectorConfig cfg;
  FaultInjector inj(net, plan, cfg);
  sim::Simulator sim;
  inj.arm(sim, 20 * units::kMillisecond);
  sim.run_until(20 * units::kMillisecond);

  const auto r = inj.report(20 * units::kMillisecond);
  ASSERT_EQ(r.outages.size(), 1u);
  const auto& o = r.outages[0];
  EXPECT_EQ(o.link, 0);
  EXPECT_EQ(o.t_down, 2 * units::kMillisecond);
  // Detection = hold expiry: after the last pre-failure hello plus the hold
  // time, at most one hello interval (plus the in-flight slack) late.
  EXPECT_GT(o.t_detected, o.t_down);
  EXPECT_LE(o.t_detected, o.t_down + inj.hold_time() + cfg.hello_interval +
                              2 * sim::kLinkDelay);
  // The measured outage window decomposes exactly into detection delay plus
  // the control-plane reaction (incremental reconvergence) time.
  EXPECT_EQ(o.t_routed_out, o.t_detected + cfg.repair_delay);
  EXPECT_EQ(o.t_routed_out - o.t_down,
            (o.t_detected - o.t_down) + cfg.repair_delay);
  // Restore path: first hello across the revived link drives re-insertion.
  EXPECT_EQ(o.t_restored, 8 * units::kMillisecond);
  EXPECT_GE(o.t_up_detected, o.t_restored);
  EXPECT_LE(o.t_up_detected,
            o.t_restored + cfg.hello_interval + 2 * sim::kLinkDelay);
  EXPECT_EQ(o.t_routed_in, o.t_up_detected + cfg.repair_delay);
  // Blackhole window = failure until the tables stopped using the link.
  EXPECT_DOUBLE_EQ(r.blackhole_seconds,
                   units::to_seconds(o.t_routed_out - o.t_down));
}

TEST(FaultInjector, FlapShorterThanHoldGoesUndetectedButBlackholes) {
  const topo::Graph g = diamond();
  sim::Network net(g, NetworkConfig{});
  // 80us < one hello interval: each direction loses at most one hello, so
  // no gap can reach the hold time (flaps near hold - interval can still
  // trip a session whose hellos straddle the window).
  const auto plan = FaultPlan::parse("flap link=0 down=2ms up=2.08ms", g, 1);
  FaultInjector inj(net, plan, FaultInjectorConfig{});
  ASSERT_GT(inj.hold_time(), parse_time("80us"));
  sim::Simulator sim;
  inj.arm(sim, 10 * units::kMillisecond);
  sim.run_until(10 * units::kMillisecond);

  const auto r = inj.report(10 * units::kMillisecond);
  ASSERT_EQ(r.outages.size(), 1u);
  EXPECT_EQ(r.outages[0].t_detected, -1);    // control plane never noticed
  EXPECT_EQ(r.outages[0].t_routed_out, -1);
  EXPECT_EQ(r.outages[0].t_restored,
            2 * units::kMillisecond + 80 * units::kMicrosecond);
  EXPECT_DOUBLE_EQ(r.blackhole_seconds, 80e-6);  // but packets still died
}

TEST(FaultInjector, MildGrayFailurePassesHellosUndetected) {
  const topo::Graph g = diamond();
  sim::Network net(g, NetworkConfig{});
  const auto plan =
      FaultPlan::parse("gray link=0 drop=0.02 from=1ms until=9ms", g, 42);
  FaultInjector inj(net, plan, FaultInjectorConfig{});
  sim::Simulator sim;
  inj.arm(sim, 12 * units::kMillisecond);
  sim.run_until(12 * units::kMillisecond);

  const auto r = inj.report(12 * units::kMillisecond);
  EXPECT_TRUE(r.outages.empty());  // 2% loss never breaks the hold window
  ASSERT_EQ(r.gray_windows.size(), 1u);
  EXPECT_FALSE(r.gray_windows[0].detected);
  EXPECT_EQ(r.gray_windows[0].from, units::kMillisecond);
  EXPECT_EQ(r.gray_windows[0].until, 9 * units::kMillisecond);
  EXPECT_EQ(r.undetected_gray_windows, 1);
}

TEST(FaultInjector, TotalGrayLossTripsBfdWithoutPhysicalFailure) {
  const topo::Graph g = diamond();
  sim::Network net(g, NetworkConfig{});
  const auto plan =
      FaultPlan::parse("gray link=0 drop=1.0 from=1ms until=5ms", g, 42);
  FaultInjectorConfig cfg;
  FaultInjector inj(net, plan, cfg);
  sim::Simulator sim;
  inj.arm(sim, 15 * units::kMillisecond);
  sim.run_until(15 * units::kMillisecond);

  const auto r = inj.report(15 * units::kMillisecond);
  ASSERT_EQ(r.outages.size(), 1u);
  const auto& o = r.outages[0];
  EXPECT_EQ(o.t_down, -1);  // the link never went physically down
  EXPECT_GT(o.t_detected, units::kMillisecond);
  EXPECT_EQ(o.t_routed_out, o.t_detected + cfg.repair_delay);
  EXPECT_GE(o.t_up_detected, 5 * units::kMillisecond);  // hellos resumed
  EXPECT_EQ(o.t_routed_in, o.t_up_detected + cfg.repair_delay);
  ASSERT_EQ(r.gray_windows.size(), 1u);
  EXPECT_TRUE(r.gray_windows[0].detected);
  EXPECT_EQ(r.undetected_gray_windows, 0);
  EXPECT_DOUBLE_EQ(r.blackhole_seconds, 0.0);  // drops were gray, not blackhole
}

TEST(FaultInjector, CorruptedPacketsFailReceiverChecksumAndFlowRecovers) {
  const topo::Graph g = pair_graph();
  sim::Network net(g, NetworkConfig{});
  FlowDriver driver(net, TcpConfig{});
  const auto plan =
      FaultPlan::parse("gray link=0 corrupt=1.0 drop=0 from=1ms until=3ms", g,
                       9);
  FaultInjector inj(net, plan, FaultInjectorConfig{});
  sim::Simulator sim;
  driver.add_flow(sim, 0, 1, 2'000'000, 0);
  inj.arm(sim, 200 * units::kMillisecond);
  sim.run_until(200 * units::kMillisecond);

  // Corrupted data crossed the fabric but was discarded by the checksum;
  // corrupted hellos count as lost, so BFD tripped even though nothing was
  // dropped in-network.
  EXPECT_GT(net.stats().corrupt_drops, 0);
  const auto r = inj.report(200 * units::kMillisecond);
  ASSERT_EQ(r.outages.size(), 1u);
  EXPECT_EQ(r.outages[0].t_down, -1);
  EXPECT_GE(r.outages[0].t_routed_in, 0);
  // The flow stalls through the corruption window and is rescued by its
  // retransmission timer once the link is clean again.
  EXPECT_EQ(driver.completed_flows(), 1u);
  EXPECT_EQ(DegradationMonitor::flows_rescued_by_rto(driver), 1u);
}

TEST(FaultInjector, DegradedPortSlowsTheFlowDown) {
  const auto fct_with = [](const std::string& spec) {
    const topo::Graph g = pair_graph();
    sim::Network net(g, NetworkConfig{});
    FlowDriver driver(net, TcpConfig{});
    sim::Simulator sim;
    driver.add_flow(sim, 0, 1, 5'000'000, 0);
    FaultPlan plan = FaultPlan::parse(spec, g, 0);
    FaultInjector inj(net, plan, FaultInjectorConfig{});
    inj.arm(sim, 500 * units::kMillisecond);
    sim.run_until(500 * units::kMillisecond);
    EXPECT_EQ(driver.completed_flows(), 1u);
    return driver.flow(0).record().fct();
  };
  const Time clean = fct_with("");
  const Time degraded = fct_with("degrade link=0 rate=0.25 from=0ns");
  EXPECT_GT(degraded, 2 * clean);
}

// Config validation: a structured error naming the offending value, not a
// silent nondeterministic run. Each clause of validate() fires on its own.
TEST(FaultInjectorConfig, ValidateRejectsRepairDelayBelowLinkDelay) {
  FaultInjectorConfig cfg;
  cfg.repair_delay = 10;  // ps, far below any real link delay
  try {
    cfg.validate(/*link_delay=*/units::kMicrosecond);
    FAIL() << "validate accepted repair_delay < link_delay";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("repair_delay"), std::string::npos) << what;
    EXPECT_NE(what.find("10ps"), std::string::npos) << what;
    EXPECT_NE(what.find("lookahead"), std::string::npos) << what;
  }
}

TEST(FaultInjectorConfig, ValidateRejectsNonPositiveHelloInterval) {
  FaultInjectorConfig cfg;
  cfg.hello_interval = 0;
  try {
    cfg.validate(/*link_delay=*/0);
    FAIL() << "validate accepted hello_interval == 0";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("hello_interval must be positive"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultInjectorConfig, ValidateRejectsHoldCountBelowOne) {
  FaultInjectorConfig cfg;
  cfg.hold_count = 0;
  try {
    cfg.validate(/*link_delay=*/0);
    FAIL() << "validate accepted hold_count == 0";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("hold_count must be >= 1"),
              std::string::npos)
        << e.what();
  }
}

// arm() is the enforcement point: a live injector with a bad config must
// throw before scheduling anything.
TEST(FaultInjectorConfig, ArmValidates) {
  const topo::Graph g = pair_graph();
  sim::Network net(g, NetworkConfig{});
  const auto plan = FaultPlan::parse("fail link=0 at=1ms", g, 1);
  FaultInjectorConfig cfg;
  cfg.repair_delay = 0;
  FaultInjector inj(net, plan, cfg);
  sim::Simulator sim;
  EXPECT_THROW(inj.arm(sim, 10 * units::kMillisecond), Error);
}

TEST(FaultInjectorConfig, ValidateAcceptsDefaults) {
  FaultInjectorConfig cfg;
  EXPECT_NO_THROW(cfg.validate(/*link_delay=*/units::kMicrosecond));
}

}  // namespace
}  // namespace spineless::fault
