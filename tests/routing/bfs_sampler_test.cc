#include "routing/bfs_sampler.h"

#include <gtest/gtest.h>

#include <vector>

#include "routing/ecmp.h"
#include "topo/analysis.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace spineless::routing {
namespace {

// 500 paths to 96 skewed destinations — more than the 64-entry distance
// cache, so the draws exercise hits, misses and eviction — hashed hop by
// hop.
std::uint64_t sample_hash(const Graph& g) {
  BfsSampler sampler(g);
  Rng rng(0x5a3d1e);
  std::uint64_t h = 0;
  for (int i = 0; i < 500; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(g.num_switches()));
    const auto dst =
        static_cast<NodeId>(rng.uniform(96) * 37 % g.num_switches());
    const Path p = sampler.sample(src, dst, rng);
    h = splitmix64(h ^ p.size());
    for (NodeId n : p) h = splitmix64(h ^ static_cast<std::uint64_t>(n));
  }
  return h;
}

// Golden values from the hybrid engine's table-free sampler before it
// moved into routing: any change to the walk's candidate order or RNG
// draws on graphs above the hybrid's 4096-switch table threshold fails
// here.
TEST(BfsSampler, GoldenPathsOnLargeRrg) {
  const Graph g = topo::make_rrg(4500, 16, 2, 11);
  EXPECT_EQ(sample_hash(g), 9728632969606215484ull);
}

TEST(BfsSampler, GoldenPathsOnLargeDring) {
  const Graph g = topo::make_dring(1200, 4, 2).graph;
  EXPECT_EQ(sample_hash(g), 11472566618063115198ull);
}

void expect_shortest_walk(const Graph& g, const Path& p, NodeId src,
                          NodeId dst) {
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.front(), src);
  EXPECT_EQ(p.back(), dst);
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    EXPECT_TRUE(g.adjacent(p[i], p[i + 1]));
}

TEST(BfsSampler, WalksAreShortestPaths) {
  const Graph g = topo::make_rrg(64, 6, 1, 3);
  BfsSampler sampler(g);
  Rng rng(7);
  for (NodeId dst = 0; dst < g.num_switches(); dst += 5) {
    const auto dist = topo::bfs_distances(g, dst);
    for (NodeId src = 0; src < g.num_switches(); src += 3) {
      const Path p = sampler.sample(src, dst, rng);
      expect_shortest_walk(g, p, src, dst);
      EXPECT_EQ(path_length(p), dist[static_cast<std::size_t>(src)]);
    }
  }
}

TEST(BfsSampler, MaskedEndpointsAreReachableButNeverTransited) {
  // Ring 0-1-2-3-4-5-0 with switch 1 masked: 0 -> 2 must go the long way,
  // yet a masked source or destination is still an endpoint.
  Graph g(6);
  for (NodeId n = 0; n < 6; ++n) g.add_link(n, (n + 1) % 6);
  const std::vector<char> mask{0, 1, 0, 0, 0, 0};
  BfsSampler sampler(g, mask);
  Rng rng(1);
  EXPECT_EQ(sampler.sample(0, 2, rng), (Path{0, 5, 4, 3, 2}));
  EXPECT_EQ(sampler.sample(3, 1, rng), (Path{3, 2, 1}));
  EXPECT_EQ(sampler.sample(1, 3, rng), (Path{1, 2, 3}));
  EXPECT_EQ(sampler.sample(1, 1, rng), (Path{1}));
}

TEST(BfsSampler, DeadLinksAreAvoidedUntilRevived) {
  Graph g(6);
  for (NodeId n = 0; n < 6; ++n) g.add_link(n, (n + 1) % 6);  // link n: n-n+1
  BfsSampler sampler(g);
  Rng rng(1);
  EXPECT_EQ(sampler.sample(0, 2, rng), (Path{0, 1, 2}));
  sampler.set_link_dead(1, true);  // 1-2
  EXPECT_EQ(sampler.sample(0, 2, rng), (Path{0, 5, 4, 3, 2}));
  sampler.set_link_dead(4, true);  // 4-5: 2 is now cut off from 0
  EXPECT_TRUE(sampler.sample(0, 2, rng).empty());
  sampler.set_link_dead(1, false);
  sampler.set_link_dead(4, false);
  EXPECT_EQ(sampler.sample(0, 2, rng), (Path{0, 1, 2}));
}

TEST(BfsSampler, UnreachableThroughMaskIsEmpty) {
  // Path graph 0-1-2 with the middle masked: no route between the ends.
  Graph g(3);
  g.add_link(0, 1);
  g.add_link(1, 2);
  const std::vector<char> mask{0, 1, 0};
  BfsSampler sampler(g, mask);
  Rng rng(1);
  EXPECT_TRUE(sampler.sample(0, 2, rng).empty());
  EXPECT_EQ(sampler.sample(0, 1, rng), (Path{0, 1}));
}

TEST(SampleEcmpPath, MatchesTableAndReportsUnreachable) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  const auto t = EcmpTable::compute(g);
  Rng rng(1);
  EXPECT_EQ(sample_ecmp_path(t, 0, 3, rng), (Path{0, 1, 2, 3}));
  EXPECT_EQ(sample_ecmp_path(t, 2, 2, rng), (Path{2}));
  const LinkSet dead{1};
  const auto cut = EcmpTable::compute(g, &dead);
  EXPECT_TRUE(sample_ecmp_path(cut, 0, 3, rng).empty());
}

}  // namespace
}  // namespace spineless::routing
