// Parallel route-table construction must be byte-identical to serial: the
// per-destination fan-out writes into pre-sized slots, so the worker count
// (and scheduling order) can never change the result.
#include <gtest/gtest.h>

#include "reference_tables.h"
#include "routing/vrf.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "util/runner.h"

namespace spineless::routing {
namespace {

LinkSet random_dead_links(const topo::Graph& g, std::uint64_t seed,
                          int count) {
  Rng rng(seed);
  LinkSet dead;
  for (int i = 0; i < count; ++i) {
    dead.insert(static_cast<LinkId>(
        rng.uniform(static_cast<std::uint64_t>(g.num_links()))));
  }
  return dead;
}

void expect_same_vrf(const topo::Graph& g, int k, const VrfTable& a,
                     const VrfTable& b) {
  ASSERT_EQ(a.num_switches(), b.num_switches());
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    for (NodeId u = 0; u < g.num_switches(); ++u) {
      for (int vrf = 1; vrf <= k; ++vrf) {
        EXPECT_EQ(a.distance(u, vrf, dst), b.distance(u, vrf, dst));
        const auto ha = a.next_hops(u, vrf, dst);
        const auto hb = b.next_hops(u, vrf, dst);
        ASSERT_EQ(ha.size(), hb.size());
        for (std::size_t i = 0; i < ha.size(); ++i) {
          EXPECT_EQ(ha[i].port.neighbor, hb[i].port.neighbor);
          EXPECT_EQ(ha[i].port.link, hb[i].port.link);
          EXPECT_EQ(ha[i].next_vrf, hb[i].next_vrf);
          EXPECT_EQ(ha[i].cost, hb[i].cost);
          EXPECT_EQ(ha[i].weight, hb[i].weight);
        }
      }
    }
  }
}

TEST(ParallelTables, EcmpMatchesSerialOnHealthyGraphs) {
  util::Runner pool(4, util::Runner::Nested::kAllow);
  for (const auto& g : {topo::make_leaf_spine(6, 2),
                        topo::make_dring(5, 2, 4).graph,
                        topo::make_rrg(12, 4, 4, /*seed=*/3)}) {
    const auto serial = VrfTable::compute(g, 1);
    const auto parallel = VrfTable::compute(g, 1, nullptr, &pool);
    expect_same_vrf(g, 1, serial, parallel);
    EXPECT_TRUE(ecmp_table_valid(g, parallel));
  }
}

TEST(ParallelTables, EcmpMatchesSerialUnderRandomFailures) {
  util::Runner pool(4, util::Runner::Nested::kAllow);
  const auto g = topo::make_dring(6, 2, 4).graph;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const LinkSet dead =
        random_dead_links(g, seed, static_cast<int>(seed) % 5 + 1);
    const auto serial = VrfTable::compute(g, 1, &dead);
    const auto parallel = VrfTable::compute(g, 1, &dead, &pool);
    expect_same_vrf(g, 1, serial, parallel);
    EXPECT_TRUE(ecmp_table_valid(g, parallel, &dead));
  }
}

TEST(ParallelTables, VrfMatchesSerialIncludingWeights) {
  util::Runner pool(4, util::Runner::Nested::kAllow);
  const auto g = topo::make_dring(5, 2, 2).graph;
  for (const int k : {1, 2, 3}) {
    const auto serial = VrfTable::compute(g, k);
    const auto parallel = VrfTable::compute(g, k, nullptr, &pool);
    expect_same_vrf(g, k, serial, parallel);
  }
}

TEST(ParallelTables, VrfMatchesSerialUnderRandomFailures) {
  util::Runner pool(4, util::Runner::Nested::kAllow);
  const auto g = topo::make_rrg(10, 4, 2, /*seed=*/9);
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const LinkSet dead =
        random_dead_links(g, seed, static_cast<int>(seed) % 4 + 1);
    const auto serial = VrfTable::compute(g, 2, &dead);
    const auto parallel = VrfTable::compute(g, 2, &dead, &pool);
    expect_same_vrf(g, 2, serial, parallel);
  }
}

TEST(ParallelTables, SingleJobRunnerTakesSerialPath) {
  util::Runner one(1);
  const auto g = topo::make_leaf_spine(4, 2);
  expect_same_vrf(g, 1, VrfTable::compute(g, 1),
                  VrfTable::compute(g, 1, nullptr, &one));
}

}  // namespace
}  // namespace spineless::routing
