#include "ctrl/ospf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ctrl/bgp.h"
#include "routing/vrf.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::ctrl {
namespace {

Graph cycle_graph(int n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_link(i, (i + 1) % n);
  return g;
}

// After flooding, every router's SPF must equal the analytic ECMP table
// (the K = 1 VrfTable).
struct OspfCase {
  enum Family { kLeafSpine, kDRing, kRrg, kCycle } family;
  int a, b;
};

Graph build(const OspfCase& c) {
  switch (c.family) {
    case OspfCase::kLeafSpine:
      return topo::make_leaf_spine(c.a, c.b);
    case OspfCase::kDRing:
      return topo::make_dring(c.a, c.b, 1).graph;
    case OspfCase::kRrg:
      return topo::make_rrg(c.a, c.b, 1, 51);
    case OspfCase::kCycle:
      return cycle_graph(c.a);
  }
  throw spineless::Error("unreachable");
}

class OspfEquivalence : public ::testing::TestWithParam<OspfCase> {};

TEST_P(OspfEquivalence, SpfMatchesAnalyticEcmpTable) {
  const Graph g = build(GetParam());
  OspfNetwork ospf(g);
  ospf.flood();
  ASSERT_TRUE(ospf.converged());
  const auto table = routing::VrfTable::compute(g, 1);
  for (NodeId r = 0; r < g.num_switches(); ++r) {
    for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
      if (r == dst) continue;
      EXPECT_EQ(ospf.distance(r, dst), table.distance(r, 1, dst));
      auto mine = ospf.next_hops(r, dst);
      std::vector<Port> want;
      for (const routing::VrfHop& h : table.next_hops(r, 1, dst))
        want.push_back(h.port);
      auto key = [](const Port& p) { return p.link; };
      std::sort(mine.begin(), mine.end(),
                [&](const Port& x, const Port& y) { return key(x) < key(y); });
      std::sort(want.begin(), want.end(),
                [&](const Port& x, const Port& y) { return key(x) < key(y); });
      ASSERT_EQ(mine.size(), want.size()) << r << "->" << dst;
      for (std::size_t i = 0; i < mine.size(); ++i)
        EXPECT_EQ(mine[i].link, want[i].link);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OspfEquivalence,
    ::testing::Values(OspfCase{OspfCase::kLeafSpine, 4, 2},
                      OspfCase{OspfCase::kDRing, 6, 2},
                      OspfCase{OspfCase::kRrg, 14, 4},
                      OspfCase{OspfCase::kCycle, 9, 0}));

TEST(Ospf, FloodingRoundsTrackDiameter) {
  const Graph g = cycle_graph(12);  // diameter 6
  OspfNetwork ospf(g);
  const int rounds = ospf.flood();
  EXPECT_GE(rounds, 6);
  EXPECT_LE(rounds, 8);
}

TEST(Ospf, SecondFloodIsNoOp) {
  const Graph g = topo::make_leaf_spine(3, 1);
  OspfNetwork ospf(g);
  ospf.flood();
  EXPECT_EQ(ospf.flood(), 0);
  EXPECT_TRUE(ospf.converged());
}

TEST(Ospf, MessagesCountUsefulInstalls) {
  // Every router must install N-1 foreign LSAs at least once.
  const Graph g = topo::make_dring(5, 2, 1).graph;
  OspfNetwork ospf(g);
  ospf.flood();
  const auto n = static_cast<std::int64_t>(g.num_switches());
  EXPECT_GE(ospf.messages_sent(), n * (n - 1));
}

TEST(Ospf, LinkFailureReroutes) {
  const Graph g = cycle_graph(6);
  OspfNetwork ospf(g);
  ospf.flood();
  ASSERT_EQ(ospf.distance(0, 1), 1);
  LinkId direct = g.neighbors(0)[0].link;
  NodeId victim = g.neighbors(0)[0].neighbor;
  ospf.fail_link(direct);
  EXPECT_FALSE(ospf.converged());  // stale LSDBs elsewhere
  const int rounds = ospf.flood();
  EXPECT_GT(rounds, 0);
  EXPECT_TRUE(ospf.converged());
  EXPECT_EQ(ospf.distance(0, victim), 5);  // around the ring
  const auto hops = ospf.next_hops(0, victim);
  ASSERT_EQ(hops.size(), 1u);
  EXPECT_NE(hops[0].link, direct);
}

TEST(Ospf, RestoreRecovers) {
  const Graph g = cycle_graph(6);
  OspfNetwork ospf(g);
  ospf.flood();
  const LinkId direct = g.neighbors(0)[0].link;
  const NodeId victim = g.neighbors(0)[0].neighbor;
  ospf.fail_link(direct);
  ospf.flood();
  ospf.restore_link(direct);
  ospf.flood();
  EXPECT_EQ(ospf.distance(0, victim), 1);
}

TEST(Ospf, PartitionIsDetectedPerSide) {
  Graph g(2);
  const LinkId l = g.add_link(0, 1);
  OspfNetwork ospf(g);
  ospf.flood();
  ospf.fail_link(l);
  ospf.flood();
  EXPECT_EQ(ospf.distance(0, 1), -1);
  EXPECT_TRUE(ospf.next_hops(0, 1).empty());
}

TEST(Ospf, MatchesBgpK1FibEverywhere) {
  // Cross-protocol check (§2 "BGP or OSPF"): plain shortest-path ECMP must
  // come out identical from the link-state SPF and the path-vector K=1
  // BGP mesh — same next-hop link sets at every (router, dst).
  const Graph g = topo::make_dring(6, 2, 1).graph;
  OspfNetwork ospf(g);
  ospf.flood();
  BgpVrfNetwork bgp(g, /*k=*/1);
  bgp.converge();
  for (NodeId r = 0; r < g.num_switches(); ++r) {
    for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
      if (r == dst) continue;
      std::multiset<LinkId> from_ospf, from_bgp;
      for (const Port& p : ospf.next_hops(r, dst)) from_ospf.insert(p.link);
      for (const auto& e : bgp.fib(r, 1, dst)) from_bgp.insert(e.port.link);
      EXPECT_EQ(from_ospf, from_bgp) << r << "->" << dst;
    }
  }
}

TEST(Ospf, TwoWayCheckIgnoresOneSidedClaims) {
  // Before the remote endpoint's new LSA floods back, SPF must not use a
  // link only one side claims. Fail a link, flood only partially, and
  // assert no router forwards into the dead link from the far side view.
  const Graph g = topo::make_dring(5, 2, 1).graph;
  OspfNetwork ospf(g);
  ospf.flood();
  const LinkId dead = g.neighbors(0)[0].link;
  ospf.fail_link(dead);
  ospf.flood();
  for (NodeId r = 0; r < g.num_switches(); ++r) {
    for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
      if (r == dst) continue;
      for (const Port& p : ospf.next_hops(r, dst)) EXPECT_NE(p.link, dead);
    }
  }
}

}  // namespace
}  // namespace spineless::ctrl
