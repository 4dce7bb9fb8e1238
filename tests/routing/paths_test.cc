#include "routing/paths.h"

#include <gtest/gtest.h>

#include <set>

#include "path_checks.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::routing {
namespace {

Graph cycle_graph(int n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_link(i, (i + 1) % n);
  return g;
}

TEST(ShortestPaths, CountMatchesDpCount) {
  const Graph g = topo::make_rrg(16, 4, 1, 11);
  for (NodeId src = 0; src < 6; ++src) {
    for (NodeId dst = 10; dst < 16; ++dst) {
      const auto paths = enumerate_shortest_paths(g, src, dst);
      EXPECT_EQ(static_cast<std::int64_t>(paths.size()),
                topo::count_shortest_paths(g, src, dst))
          << src << "->" << dst;
    }
  }
}

TEST(ShortestPaths, AllHaveMinimalLength) {
  const Graph g = topo::make_dring(6, 2, 1).graph;
  const auto dist = topo::all_pairs_distances(g);
  for (NodeId src = 0; src < g.num_switches(); ++src) {
    for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
      if (src == dst) continue;
      for (const Path& p : enumerate_shortest_paths(g, src, dst)) {
        EXPECT_EQ(path_length(p),
                  dist[static_cast<std::size_t>(src)]
                      [static_cast<std::size_t>(dst)]);
      }
    }
  }
}

TEST(ShortestPaths, CapLimitsOutput) {
  const Graph g = topo::make_leaf_spine(4, 4);
  EXPECT_EQ(enumerate_shortest_paths(g, 0, 1, 2).size(), 2u);
}

TEST(BoundedPaths, CycleHasExactlyExpectedPaths) {
  const Graph g = cycle_graph(6);
  // 0 -> 2: clockwise length 2 or counter-clockwise length 4.
  EXPECT_EQ(enumerate_bounded_paths(g, 0, 2, 2).size(), 1u);
  EXPECT_EQ(enumerate_bounded_paths(g, 0, 2, 4).size(), 2u);
  EXPECT_EQ(enumerate_bounded_paths(g, 0, 2, 3).size(), 1u);
}

TEST(BoundedPaths, AreSimpleAndValid) {
  const Graph g = topo::make_rrg(12, 4, 1, 3);
  for (NodeId dst = 1; dst < 6; ++dst) {
    const auto paths = enumerate_bounded_paths(g, 0, dst, 3);
    EXPECT_TRUE(paths_valid(g, 0, dst, paths));
  }
}

TEST(BoundedPaths, ZeroBudgetFindsNothing) {
  const Graph g = cycle_graph(4);
  EXPECT_TRUE(enumerate_bounded_paths(g, 0, 1, 0).empty());
}

// Shortest-Union semantics: shortest paths for distant pairs, all <=K paths
// for close pairs.
TEST(ShortestUnion, EqualsShortestForDistantPairs) {
  const Graph g = cycle_graph(10);
  // 0 -> 5 has distance 5 > K=2: exactly the 2 shortest paths.
  const auto su = shortest_union_paths(g, 0, 5, 2);
  const auto sp = enumerate_shortest_paths(g, 0, 5);
  EXPECT_EQ(su, sp);
}

TEST(ShortestUnion, AddsNonShortestForAdjacentPairs) {
  const Graph g = topo::make_dring(5, 2, 1).graph;
  // Pick an adjacent ToR pair: one shortest path, but SU(2) adds all
  // 2-hop detours through common neighbors.
  const NodeId u = 0;
  const NodeId v = g.neighbors(0)[0].neighbor;
  const auto sp = enumerate_shortest_paths(g, u, v);
  const auto su = shortest_union_paths(g, u, v, 2);
  EXPECT_EQ(sp.size(), 1u);
  EXPECT_GT(su.size(), sp.size());
}

TEST(ShortestUnion, ContainsAllShortestPaths) {
  const Graph g = topo::make_rrg(14, 4, 1, 9);
  for (NodeId dst = 7; dst < 14; ++dst) {
    const auto su = shortest_union_paths(g, 0, dst, 2);
    const std::set<Path> su_set(su.begin(), su.end());
    for (const Path& p : enumerate_shortest_paths(g, 0, dst))
      EXPECT_TRUE(su_set.count(p)) << "missing shortest path";
  }
}

TEST(ShortestUnion, SortedByLengthThenLex) {
  const Graph g = topo::make_dring(5, 3, 1).graph;
  const auto su = shortest_union_paths(g, 0, g.neighbors(0)[0].neighbor, 2);
  for (std::size_t i = 1; i < su.size(); ++i)
    EXPECT_LE(su[i - 1].size(), su[i].size());
}

TEST(ShortestUnion, NoDuplicates) {
  const Graph g = topo::make_dring(6, 3, 1).graph;
  for (NodeId dst = 1; dst < 8; ++dst) {
    const auto su = shortest_union_paths(g, 0, dst, 2);
    const std::set<Path> dedup(su.begin(), su.end());
    EXPECT_EQ(dedup.size(), su.size());
  }
}

// The paper's §4 claim: "For DRing, Shortest-Union(2) provides at least
// (n + 1) disjoint paths between any two racks".
struct DRingClaim {
  int m, n;
};

class DisjointPathsClaim : public ::testing::TestWithParam<DRingClaim> {};

TEST_P(DisjointPathsClaim, ShortestUnion2GivesAtLeastNPlusOne) {
  const auto [m, n] = GetParam();
  const Graph g = topo::make_dring(m, n, 1).graph;
  for (NodeId src = 0; src < g.num_switches(); ++src) {
    for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
      if (src == dst) continue;
      const auto su = shortest_union_paths(g, src, dst, 2, 8192);
      EXPECT_GE(greedy_disjoint_count(su), n + 1)
          << "pair " << src << "->" << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DisjointPathsClaim,
                         ::testing::Values(DRingClaim{5, 1}, DRingClaim{5, 2},
                                           DRingClaim{6, 2}, DRingClaim{7, 3},
                                           DRingClaim{8, 2}));

TEST(GreedyDisjoint, DirectPathAlwaysCounted) {
  EXPECT_EQ(greedy_disjoint_count({{0, 1}}), 1);
}

TEST(GreedyDisjoint, SharedInteriorExcluded) {
  // Two 2-hop paths through the same relay: only one counts.
  EXPECT_EQ(greedy_disjoint_count({{0, 2, 1}, {0, 2, 1}}), 1);
  EXPECT_EQ(greedy_disjoint_count({{0, 2, 1}, {0, 3, 1}}), 2);
}

TEST(PathsValid, DetectsBrokenPaths) {
  const Graph g = cycle_graph(4);
  EXPECT_TRUE(paths_valid(g, 0, 2, {{0, 1, 2}}));
  EXPECT_FALSE(paths_valid(g, 0, 2, {{0, 2}}));        // not a link
  EXPECT_FALSE(paths_valid(g, 0, 2, {{1, 2}}));        // wrong source
  EXPECT_FALSE(paths_valid(g, 0, 2, {{0, 1}}));        // wrong dest
  EXPECT_FALSE(paths_valid(g, 0, 2, {{0, 1, 0, 1, 2}}));  // not simple
}

}  // namespace
}  // namespace spineless::routing
