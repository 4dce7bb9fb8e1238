#include "topo/graph.h"

#include <gtest/gtest.h>

namespace spineless::topo {
namespace {

TEST(Graph, AddLinkUpdatesAdjacency) {
  Graph g(3);
  const LinkId l = g.add_link(0, 1);
  EXPECT_EQ(g.num_links(), 1);
  EXPECT_EQ(g.link(l).a, 0);
  EXPECT_EQ(g.link(l).b, 1);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(1, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
  EXPECT_EQ(g.network_degree(0), 1);
  EXPECT_EQ(g.network_degree(2), 0);
}

TEST(Graph, LinkOtherEndpoint) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1);
  EXPECT_EQ(g.link(l).other(0), 1);
  EXPECT_EQ(g.link(l).other(1), 0);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_link(1, 1), Error);
}

TEST(Graph, OutOfRangeEndpointsRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_link(0, 2), Error);
  EXPECT_THROW(g.add_link(-1, 0), Error);
}

TEST(Graph, ParallelLinksAllowed) {
  Graph g(2);
  g.add_link(0, 1);
  g.add_link(0, 1);
  EXPECT_EQ(g.num_links(), 2);
  EXPECT_EQ(g.network_degree(0), 2);
}

TEST(Graph, LinkBetweenPicksFirstParallelLinkInPortOrder) {
  Graph g(3);
  g.add_link(1, 2);                   // link 0
  const LinkId first = g.add_link(0, 1);
  g.add_link(0, 1);                   // parallel, later port
  EXPECT_EQ(g.link_between(0, 1), first);
  EXPECT_EQ(g.link_between(1, 0), first);
  EXPECT_EQ(g.link_between(2, 1), 0);
}

TEST(Graph, LinkBetweenNonAdjacentIsInvalid) {
  Graph g(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  EXPECT_EQ(g.link_between(0, 2), kInvalidLink);
  EXPECT_EQ(g.link_between(0, 0), kInvalidLink);
}

TEST(Graph, ServerAccounting) {
  Graph g(3);
  g.set_servers(0, 4);
  g.set_servers(2, 2);
  EXPECT_EQ(g.total_servers(), 6);
  g.set_servers(0, 1);  // reassignment adjusts the total
  EXPECT_EQ(g.total_servers(), 3);
  EXPECT_EQ(g.servers(1), 0);
}

TEST(Graph, HostMappingContiguousPerSwitch) {
  Graph g(3);
  g.set_servers(0, 2);
  g.set_servers(1, 0);
  g.set_servers(2, 3);
  EXPECT_EQ(g.first_host_of(0), 0);
  EXPECT_EQ(g.first_host_of(2), 2);
  EXPECT_EQ(g.tor_of_host(0), 0);
  EXPECT_EQ(g.tor_of_host(1), 0);
  EXPECT_EQ(g.tor_of_host(2), 2);
  EXPECT_EQ(g.tor_of_host(4), 2);
  EXPECT_THROW(g.tor_of_host(5), Error);
  EXPECT_THROW(g.tor_of_host(-1), Error);
}

TEST(Graph, HostIndexRebuildsAfterServerChange) {
  Graph g(2);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  EXPECT_EQ(g.tor_of_host(1), 1);
  g.set_servers(0, 3);
  EXPECT_EQ(g.tor_of_host(1), 0);
  EXPECT_EQ(g.tor_of_host(3), 1);
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(2, 3);
  EXPECT_FALSE(g.connected());
  g.add_link(1, 2);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, SingleNodeIsConnected) {
  Graph g(1);
  EXPECT_TRUE(g.connected());
}

TEST(Graph, PortBudgetValidation) {
  Graph g(2, /*ports_per_switch=*/3);
  g.add_link(0, 1);
  g.set_servers(0, 2);
  EXPECT_NO_THROW(g.validate_ports());
  g.set_servers(0, 3);  // 1 net + 3 servers > 3 ports
  EXPECT_THROW(g.validate_ports(), Error);
}

TEST(Graph, ZeroPortBudgetDisablesCheck) {
  Graph g(2, 0);
  g.add_link(0, 1);
  g.set_servers(0, 1000);
  EXPECT_NO_THROW(g.validate_ports());
}

TEST(Graph, PortsUsedCountsBoth) {
  Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 5);
  EXPECT_EQ(g.ports_used(0), 6);
  EXPECT_EQ(g.ports_used(1), 1);
}

}  // namespace
}  // namespace spineless::topo
