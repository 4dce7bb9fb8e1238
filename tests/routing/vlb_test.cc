#include "routing/vlb.h"

#include <gtest/gtest.h>

#include <set>

#include "path_checks.h"
#include "routing/paths.h"
#include "topo/builders.h"

namespace spineless::routing {
namespace {

TEST(Vlb, PathsAreValidAndSimple) {
  const Graph g = topo::make_dring(6, 2, 1).graph;
  for (NodeId dst = 1; dst < 6; ++dst) {
    const auto paths = vlb_paths(g, 0, dst, 8, 1);
    EXPECT_FALSE(paths.empty());
    EXPECT_TRUE(paths_valid(g, 0, dst, paths));
  }
}

TEST(Vlb, DeterministicForSeed) {
  const Graph g = topo::make_rrg(14, 4, 1, 3);
  EXPECT_EQ(vlb_paths(g, 0, 7, 6, 42), vlb_paths(g, 0, 7, 6, 42));
}

TEST(Vlb, IntermediateCountCapRespected) {
  const Graph g = topo::make_rrg(20, 4, 1, 3);
  const auto paths = vlb_paths(g, 0, 10, 4, 1);
  EXPECT_LE(paths.size(), 4u);
}

TEST(Vlb, ProvidesDetourDiversityForAdjacentRacks) {
  // Like Shortest-Union, VLB gives adjacent flat-network racks more than
  // the single direct path.
  const Graph g = topo::make_dring(6, 3, 1).graph;
  const NodeId v = g.neighbors(0)[0].neighbor;
  const auto paths = vlb_paths(g, 0, v, 16, 5);
  EXPECT_GT(paths.size(), 1u);
}

TEST(Vlb, NoDuplicatePaths) {
  const Graph g = topo::make_rrg(16, 5, 1, 9);
  const auto paths = vlb_paths(g, 0, 9, 14, 2);
  const std::set<Path> dedup(paths.begin(), paths.end());
  EXPECT_EQ(dedup.size(), paths.size());
}

}  // namespace
}  // namespace spineless::routing
