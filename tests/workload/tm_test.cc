#include "workload/tm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "topo/builders.h"
#include "util/error.h"

namespace spineless::workload {
namespace {

TEST(RackTm, UniformWeightsProportionalToServerProducts) {
  const Graph g = topo::make_leaf_spine(4, 2);
  const RackTm tm = RackTm::uniform(g);
  const NodeId leaves = topo::leaf_spine_num_leaves(4, 2);
  for (NodeId a = 0; a < leaves; ++a) {
    for (NodeId b = 0; b < leaves; ++b) {
      if (a == b) {
        EXPECT_DOUBLE_EQ(tm.at(a, b), 0.0);
      } else {
        EXPECT_DOUBLE_EQ(tm.at(a, b), 16.0);
      }
    }
  }
  // Spines host no servers: zero weight.
  EXPECT_DOUBLE_EQ(tm.at(leaves, 0), 0.0);
  EXPECT_DOUBLE_EQ(tm.at(0, leaves), 0.0);
}

TEST(RackTm, SendingRacksCount) {
  const Graph g = topo::make_leaf_spine(4, 2);
  EXPECT_EQ(RackTm::uniform(g).sending_racks(), 6);
  EXPECT_EQ(RackTm::rack_to_rack(g, 0, 1).sending_racks(), 1);
}

TEST(RackTm, RackToRackSingleEntry) {
  const Graph g = topo::make_leaf_spine(4, 2);
  const RackTm tm = RackTm::rack_to_rack(g, 2, 5);
  for (NodeId a = 0; a < tm.racks(); ++a)
    for (NodeId b = 0; b < tm.racks(); ++b)
      EXPECT_DOUBLE_EQ(tm.at(a, b), a == 2 && b == 5 ? 1.0 : 0.0);
}

TEST(RackTm, RackToRackRejectsSpines) {
  const Graph g = topo::make_leaf_spine(4, 2);
  const NodeId spine = topo::leaf_spine_num_leaves(4, 2);
  EXPECT_THROW(RackTm::rack_to_rack(g, 0, spine), Error);
  EXPECT_THROW(RackTm::rack_to_rack(g, 0, 0), Error);
}

TEST(RackTm, FbUniformIsNearUniform) {
  const Graph g = topo::flatten_leaf_spine(12, 4, 1);
  const RackTm tm = RackTm::fb_like_uniform(g, 7);
  double lo = 1e18, hi = 0;
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      if (a == b) continue;
      lo = std::min(lo, tm.at(a, b));
      hi = std::max(hi, tm.at(a, b));
    }
  }
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(hi / lo, 20.0);  // mild variation only
}

TEST(RackTm, FbSkewedConcentratesTraffic) {
  const Graph g = topo::flatten_leaf_spine(12, 4, 1);
  const RackTm tm = RackTm::fb_like_skewed(g, 7);
  // Top 10% of rack pairs carry most of the traffic.
  std::vector<double> weights;
  for (NodeId a = 0; a < g.num_switches(); ++a)
    for (NodeId b = 0; b < g.num_switches(); ++b)
      if (a != b) weights.push_back(tm.at(a, b));
  std::sort(weights.rbegin(), weights.rend());
  double top = 0, total = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    total += weights[i];
    if (i < weights.size() / 10) top += weights[i];
  }
  EXPECT_GT(top / total, 0.5);
}

TEST(RackTm, GeneratorsDeterministicPerSeed) {
  const Graph g = topo::flatten_leaf_spine(6, 2, 1);
  const RackTm a = RackTm::fb_like_skewed(g, 3);
  const RackTm b = RackTm::fb_like_skewed(g, 3);
  const RackTm c = RackTm::fb_like_skewed(g, 4);
  bool all_same = true, any_diff_c = false;
  for (NodeId i = 0; i < g.num_switches(); ++i) {
    for (NodeId j = 0; j < g.num_switches(); ++j) {
      all_same &= a.at(i, j) == b.at(i, j);
      any_diff_c |= a.at(i, j) != c.at(i, j);
    }
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_c);
}

TEST(TmSampler, RespectsRackWeights) {
  const Graph g = topo::make_leaf_spine(4, 2);
  RackTm tm(g.num_switches());
  tm.at(0, 1) = 3.0;
  tm.at(2, 3) = 1.0;
  TmSampler sampler(g, tm);
  Rng rng(5);
  std::map<std::pair<NodeId, NodeId>, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto [s, d] = sampler.sample(rng);
    ++counts[{g.tor_of_host(s), g.tor_of_host(d)}];
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_NEAR(static_cast<double>(counts[{0, 1}]) / n, 0.75, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[{2, 3}]) / n, 0.25, 0.02);
}

TEST(TmSampler, HostsAlwaysDistinctAndInRightRacks) {
  const Graph g = topo::make_dring(5, 2, 3).graph;
  const RackTm tm = RackTm::uniform(g);
  TmSampler sampler(g, tm);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    const auto [s, d] = sampler.sample(rng);
    EXPECT_NE(s, d);
    EXPECT_NE(g.tor_of_host(s), g.tor_of_host(d));  // diagonal excluded
  }
}

TEST(TmSampler, RandomPlacementPreservesHostUniverse) {
  const Graph g = topo::make_dring(5, 2, 3).graph;
  const RackTm tm = RackTm::uniform(g);
  TmSampler sampler(g, tm);
  Rng rng(11);
  sampler.apply_random_placement(rng);
  std::set<topo::HostId> seen;
  for (int i = 0; i < 5000; ++i) {
    const auto [s, d] = sampler.sample(rng);
    EXPECT_NE(s, d);
    seen.insert(s);
    seen.insert(d);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, g.total_servers());
  }
  // With 30 hosts and 10k draws we should see every host.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(g.total_servers()));
}

TEST(TmSampler, RandomPlacementBreaksRackLocality) {
  // After RP, a rack-to-rack matrix no longer maps to a single rack pair.
  const Graph g = topo::make_dring(5, 2, 3).graph;
  const RackTm tm = RackTm::rack_to_rack(g, 0, 5);
  TmSampler sampler(g, tm);
  Rng rng(13);
  sampler.apply_random_placement(rng);
  std::set<std::pair<NodeId, NodeId>> rack_pairs;
  for (int i = 0; i < 2000; ++i) {
    const auto [s, d] = sampler.sample(rng);
    rack_pairs.insert({g.tor_of_host(s), g.tor_of_host(d)});
  }
  EXPECT_GT(rack_pairs.size(), 1u);
}

TEST(TmSampler, EmptyTmRejected) {
  const Graph g = topo::make_leaf_spine(3, 1);
  RackTm tm(g.num_switches());
  EXPECT_THROW(TmSampler(g, tm), Error);
}

TEST(TmSampler, WeightOnServerlessSwitchRejected) {
  const Graph g = topo::make_leaf_spine(3, 1);
  RackTm tm(g.num_switches());
  const NodeId spine = topo::leaf_spine_num_leaves(3, 1);
  tm.at(0, spine) = 1.0;
  EXPECT_THROW(TmSampler(g, tm), Error);
}

TEST(PermutationTm, IsADerangementWithServerWeights) {
  const Graph g = topo::make_dring(6, 2, 4).graph;
  const RackTm tm = RackTm::permutation(g, 5);
  int senders = 0;
  for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
    int dests = 0;
    for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
      if (tm.at(a, b) <= 0) continue;
      ++dests;
      EXPECT_NE(a, b);  // derangement: nobody sends to itself
      EXPECT_DOUBLE_EQ(tm.at(a, b), 4.0);
    }
    EXPECT_LE(dests, 1);  // permutation: at most one destination
    senders += dests;
  }
  EXPECT_EQ(senders, 12);  // every rack sends
}

TEST(PermutationTm, EveryRackAlsoReceivesOnce) {
  const Graph g = topo::make_dring(6, 2, 4).graph;
  const RackTm tm = RackTm::permutation(g, 7);
  for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
    int sources = 0;
    for (topo::NodeId a = 0; a < g.num_switches(); ++a)
      sources += tm.at(a, b) > 0;
    EXPECT_EQ(sources, 1);
  }
}

TEST(PermutationTm, DifferentSeedsDifferentMappings) {
  const Graph g = topo::make_dring(8, 2, 4).graph;
  const RackTm a = RackTm::permutation(g, 1);
  const RackTm b = RackTm::permutation(g, 2);
  bool differ = false;
  for (topo::NodeId i = 0; i < g.num_switches() && !differ; ++i)
    for (topo::NodeId j = 0; j < g.num_switches() && !differ; ++j)
      differ = (a.at(i, j) > 0) != (b.at(i, j) > 0);
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace spineless::workload
