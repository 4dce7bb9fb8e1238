// End-to-end forwarding validation via path tracing: the packets a mode
// actually forwards must use exactly the path sets the routing layer
// promises — the strongest cross-layer check in the suite. Also
// cross-validates the packet simulator against the fluid model.
#include <gtest/gtest.h>

#include <algorithm>

#include "../routing/path_checks.h"
#include "flowsim/maxmin.h"
#include "flowsim/resource_layout.h"
#include "routing/paths.h"
#include "sim/tcp.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::sim {
namespace {

struct TraceRig {
  TraceRig(const topo::Graph& graph_in, RoutingMode mode)
      : graph(graph_in), net(graph, make_cfg(mode)), driver(net, TcpConfig{}) {}

  static NetworkConfig make_cfg(RoutingMode mode) {
    NetworkConfig cfg;
    cfg.mode = mode;
    cfg.trace_paths = true;
    return cfg;
  }

  topo::Graph graph;
  Simulator sim;
  Network net;
  FlowDriver driver;
};

TEST(Tracing, EcmpPacketsFollowShortestPaths) {
  TraceRig rig(topo::make_dring(6, 2, 2).graph, RoutingMode::kEcmp);
  const auto& g = rig.graph;
  const auto dist = topo::all_pairs_distances(g);
  std::vector<std::pair<topo::HostId, topo::HostId>> endpoints;
  for (int i = 0; i < 20; ++i) {
    const topo::HostId src = i % g.total_servers();
    const topo::HostId dst = (i * 7 + 3) % g.total_servers();
    if (g.tor_of_host(src) == g.tor_of_host(dst)) continue;
    endpoints.emplace_back(src, dst);
    rig.driver.add_flow(rig.sim, src, dst, 10'000, i * units::kMicrosecond);
  }
  rig.sim.run_until(units::kSecond);
  for (std::size_t f = 0; f < endpoints.size(); ++f) {
    const auto path = rig.net.traced_path(static_cast<std::int32_t>(f));
    const auto [src, dst] = endpoints[f];
    const auto a = g.tor_of_host(src);
    const auto b = g.tor_of_host(dst);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    EXPECT_EQ(routing::path_length(path),
              dist[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]);
    EXPECT_TRUE(routing::paths_valid(g, a, b, {path}));
  }
}

TEST(Tracing, ShortestUnionPacketsStayInSuSet) {
  TraceRig rig(topo::make_dring(5, 3, 2).graph, RoutingMode::kShortestUnion);
  const auto& g = rig.graph;
  std::vector<std::pair<topo::HostId, topo::HostId>> endpoints;
  for (int i = 0; i < 30; ++i) {
    const topo::HostId src = (i * 3) % g.total_servers();
    const topo::HostId dst = (i * 11 + 5) % g.total_servers();
    if (g.tor_of_host(src) == g.tor_of_host(dst)) continue;
    endpoints.emplace_back(src, dst);
    rig.driver.add_flow(rig.sim, src, dst, 10'000, i * units::kMicrosecond);
  }
  rig.sim.run_until(units::kSecond);
  for (std::size_t f = 0; f < endpoints.size(); ++f) {
    const auto path = rig.net.traced_path(static_cast<std::int32_t>(f));
    const auto [src, dst] = endpoints[f];
    const auto a = g.tor_of_host(src);
    const auto b = g.tor_of_host(dst);
    const auto su = routing::shortest_union_paths(g, a, b, 2, 8192);
    EXPECT_TRUE(std::find(su.begin(), su.end(), path) != su.end())
        << "flow " << f << " took a path outside Shortest-Union(2)";
  }
}

TEST(Tracing, SourceRoutedPacketsFollowExactPin) {
  topo::Graph g(4);
  g.add_link(0, 1);
  g.add_link(0, 2);
  g.add_link(1, 3);
  g.add_link(2, 3);
  g.set_servers(0, 1);
  g.set_servers(3, 1);
  TraceRig rig(g, RoutingMode::kSourceRouted);
  const auto id = rig.driver.add_flow(rig.sim, 0, 1, 10'000, 0);
  rig.net.set_flow_routes(id, {0, 2, 3});
  rig.sim.run_until(units::kSecond);
  EXPECT_EQ(rig.net.traced_path(id), (routing::Path{0, 2, 3}));
}

TEST(Tracing, OffByDefaultCostsNothing) {
  topo::Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  NetworkConfig cfg;  // trace_paths = false
  Simulator sim;
  Network net(g, cfg);
  FlowDriver driver(net, TcpConfig{});
  driver.add_flow(sim, 0, 1, 10'000, 0);
  sim.run_until(units::kSecond);
  EXPECT_TRUE(net.traced_path(0).empty());
}

TEST(FluidVsPacket, AgreeOnSharedBottleneck) {
  // 4 long flows across one 10G link: fluid model says 2.5 Gbps each;
  // packet-level TCP should land within ~20% (header overhead + slow
  // start + imperfect fairness).
  topo::Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 4);
  g.set_servers(1, 4);

  const flowsim::ResourceLayout layout(g);
  flowsim::MaxMinProblem fluid(layout.capacities(10e9, 10e9));
  for (int i = 0; i < 4; ++i) fluid.add_flow(layout.flow(i, 4 + i, {0, 1}));
  const auto rates = fluid.solve(std::vector<int>{0, 1, 2, 3});
  for (double r : rates) EXPECT_NEAR(r, 2.5e9, 1);

  NetworkConfig cfg;
  Simulator sim;
  Network net(g, cfg);
  FlowDriver driver(net, TcpConfig{});
  const std::int64_t bytes = 4'000'000;
  for (int i = 0; i < 4; ++i) driver.add_flow(sim, i, 4 + i, bytes, 0);
  sim.run_until(60 * units::kSecond);
  ASSERT_EQ(driver.completed_flows(), 4u);
  // Early finishers free capacity, so per-flow FCT goodput overestimates
  // the fair share; the honest comparisons are (a) the slowest flow's
  // goodput ~ the max-min share, and (b) aggregate goodput ~ link rate.
  Time last = 0;
  for (std::size_t i = 0; i < 4; ++i)
    last = std::max(last, driver.flow(i).record().finish);
  const double slowest_goodput =
      static_cast<double>(bytes) * 8 / units::to_seconds(last);
  EXPECT_NEAR(slowest_goodput, rates[0], 0.3 * rates[0]);
  const double aggregate =
      4.0 * static_cast<double>(bytes) * 8 / units::to_seconds(last);
  EXPECT_NEAR(aggregate, 10e9, 0.2 * 10e9);
}

TEST(FluidVsPacket, AgreeOnAsymmetricShares) {
  // Flow A alone on link 0->1; flows B,C share 1->2... build a path graph
  // where the fluid model predicts unequal rates and check the ordering
  // survives in the packet world.
  topo::Graph g(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.set_servers(0, 2);
  g.set_servers(1, 1);
  g.set_servers(2, 2);
  // hosts: 0,1 on tor0; 2 on tor1; 3,4 on tor2.
  const flowsim::ResourceLayout layout(g);
  flowsim::MaxMinProblem fluid(layout.capacities(10e9, 10e9));
  fluid.add_flow(layout.flow(0, 3, {0, 1, 2}));  // crosses both links
  fluid.add_flow(layout.flow(2, 4, {1, 2}));     // only second link
  const auto rates = fluid.solve(std::vector<int>{0, 1});
  EXPECT_NEAR(rates[0], 5e9, 1);
  EXPECT_NEAR(rates[1], 5e9, 1);

  NetworkConfig cfg;
  Simulator sim;
  Network net(g, cfg);
  FlowDriver driver(net, TcpConfig{});
  const std::int64_t bytes = 4'000'000;
  driver.add_flow(sim, 0, 3, bytes, 0);
  driver.add_flow(sim, 2, 4, bytes, 0);
  sim.run_until(60 * units::kSecond);
  ASSERT_EQ(driver.completed_flows(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const double goodput =
        static_cast<double>(bytes) * 8 /
        units::to_seconds(driver.flow(i).record().fct());
    EXPECT_NEAR(goodput, rates[i], 0.3 * rates[i]);
  }
}

}  // namespace
}  // namespace spineless::sim
