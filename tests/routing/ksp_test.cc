#include "routing/ksp.h"

#include <gtest/gtest.h>

#include <set>

#include "path_checks.h"
#include "routing/paths.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::routing {
namespace {

Graph cycle_graph(int n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_link(i, (i + 1) % n);
  return g;
}

TEST(YenKsp, FirstPathIsShortest) {
  const Graph g = topo::make_rrg(16, 4, 1, 21);
  const auto dist = topo::bfs_distances(g, 0);
  for (NodeId dst = 1; dst < 16; ++dst) {
    const auto paths = yen_ksp(g, 0, dst, 1);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(path_length(paths[0]), dist[static_cast<std::size_t>(dst)]);
  }
}

TEST(YenKsp, CycleHasExactlyTwoSimplePaths) {
  const Graph g = cycle_graph(8);
  const auto paths = yen_ksp(g, 0, 3, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(path_length(paths[0]), 3);
  EXPECT_EQ(path_length(paths[1]), 5);
}

TEST(YenKsp, PathsAreDistinctSimpleAndValid) {
  const Graph g = topo::make_dring(6, 2, 1).graph;
  for (NodeId dst = 1; dst < 6; ++dst) {
    const auto paths = yen_ksp(g, 0, dst, 8);
    EXPECT_TRUE(paths_valid(g, 0, dst, paths));
    const std::set<Path> dedup(paths.begin(), paths.end());
    EXPECT_EQ(dedup.size(), paths.size());
  }
}

TEST(YenKsp, NonDecreasingLengths) {
  const Graph g = topo::make_rrg(14, 4, 1, 13);
  const auto paths = yen_ksp(g, 0, 7, 12);
  for (std::size_t i = 1; i < paths.size(); ++i)
    EXPECT_LE(paths[i - 1].size(), paths[i].size());
}

TEST(YenKsp, LeafSpineKShortest) {
  // Leaf to leaf in leaf-spine(4, 3): exactly 3 two-hop paths, then
  // longer 4-hop paths through another leaf.
  const Graph g = topo::make_leaf_spine(4, 3);
  const auto paths = yen_ksp(g, 0, 1, 4);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(path_length(paths[0]), 2);
  EXPECT_EQ(path_length(paths[2]), 2);
  EXPECT_EQ(path_length(paths[3]), 4);
}

TEST(YenKsp, UnreachableGivesEmpty) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_TRUE(yen_ksp(g, 0, 2, 3).empty());
}

TEST(YenKsp, KLargerThanPathCountReturnsAll) {
  const Graph g = cycle_graph(5);
  EXPECT_EQ(yen_ksp(g, 0, 2, 100).size(), 2u);
}

TEST(YenKsp, MatchesExhaustiveEnumerationOnSmallGraph) {
  // On a small dense graph, Yen with huge k must find every simple path,
  // in length order, matching bounded DFS enumeration.
  const Graph g = topo::make_rrg(8, 3, 1, 7);
  for (NodeId dst = 1; dst < 8; ++dst) {
    auto all = enumerate_bounded_paths(g, 0, dst, 7, 100000);
    std::sort(all.begin(), all.end(), [](const Path& a, const Path& b) {
      return a.size() < b.size();
    });
    const auto yen = yen_ksp(g, 0, dst, all.size());
    ASSERT_EQ(yen.size(), all.size()) << "dst " << dst;
    for (std::size_t i = 0; i < yen.size(); ++i)
      EXPECT_EQ(yen[i].size(), all[i].size());
  }
}

}  // namespace
}  // namespace spineless::routing
