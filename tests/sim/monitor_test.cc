#include "sim/monitor.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/tcp.h"
#include "topo/builders.h"

namespace spineless::sim {
namespace {

struct Rig {
  Rig() : graph(make_graph()), net(graph, NetworkConfig{}),
          driver(net, TcpConfig{}) {}
  static topo::Graph make_graph() {
    topo::Graph g(2);
    g.add_link(0, 1);
    g.set_servers(0, 4);
    g.set_servers(1, 4);
    return g;
  }
  topo::Graph graph;
  Simulator sim;
  Network net;
  FlowDriver driver;
};

TEST(QueueMonitor, SamplesAtRequestedCadence) {
  Rig rig;
  QueueMonitor mon(rig.net, 100 * units::kMicrosecond);
  mon.start(rig.sim, 0, units::kMillisecond);
  rig.sim.run_until(10 * units::kMillisecond);
  ASSERT_EQ(mon.samples().size(), 11u);  // t = 0, 100us, ..., 1000us
  for (std::size_t i = 0; i < mon.samples().size(); ++i)
    EXPECT_EQ(mon.samples()[i].t,
              static_cast<Time>(i) * 100 * units::kMicrosecond);
}

TEST(QueueMonitor, SeesCongestionBuildUp) {
  Rig rig;
  for (int i = 0; i < 4; ++i)
    rig.driver.add_flow(rig.sim, i, 4 + i, 4'000'000, 0);
  QueueMonitor mon(rig.net, 50 * units::kMicrosecond);
  mon.start(rig.sim, 0, 10 * units::kMillisecond);
  rig.sim.run_until(60 * units::kSecond);
  EXPECT_EQ(rig.driver.completed_flows(), 4u);
  // Four Reno flows into one 10G pipe: the monitor must observe deep
  // queues at some point.
  EXPECT_GT(mon.max_queue_pkts().max(), 30.0);
}

TEST(QueueMonitor, IdleNetworkReadsZero) {
  Rig rig;
  QueueMonitor mon(rig.net, units::kMillisecond);
  mon.start(rig.sim, 0, 5 * units::kMillisecond);
  rig.sim.run_until(units::kSecond);
  for (const auto& s : mon.samples()) {
    EXPECT_EQ(s.total_bytes, 0);
    EXPECT_EQ(s.max_bytes, 0);
  }
}

TEST(QueueMonitor, DctcpHoldsQueuesWhereRenoFillsThem) {
  // The monitoring claim end-to-end: run the same incast with Reno and
  // DCTCP, compare the observed p99 of the hottest queue.
  auto run = [](bool dctcp) {
    topo::Graph g = Rig::make_graph();
    NetworkConfig net_cfg;
    net_cfg.ecn_threshold_bytes = dctcp ? 20 * kDataPacketBytes : 0;
    TcpConfig tcp_cfg;
    tcp_cfg.dctcp = dctcp;
    Simulator sim;
    Network net(g, net_cfg);
    FlowDriver driver(net, tcp_cfg);
    for (int i = 0; i < 4; ++i)
      driver.add_flow(sim, i, 4 + i, 4'000'000, 0);
    QueueMonitor mon(net, 20 * units::kMicrosecond);
    mon.start(sim, 0, 12 * units::kMillisecond);
    sim.run_until(60 * units::kSecond);
    EXPECT_EQ(driver.completed_flows(), 4u);
    return mon.max_queue_pkts().p99();
  };
  const double reno = run(false);
  const double dctcp = run(true);
  EXPECT_LT(dctcp, reno * 0.6);
}

}  // namespace
}  // namespace spineless::sim
