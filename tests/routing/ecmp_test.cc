// The ECMP table: shortest-path ECMP is the K = 1 VrfTable (Theorem 1).
#include <gtest/gtest.h>

#include <utility>

#include "reference_tables.h"
#include "routing/vrf.h"
#include "topo/analysis.h"
#include "topo/builders.h"

namespace spineless::routing {
namespace {

TEST(EcmpTable, LeafSpineNextHops) {
  const Graph g = topo::make_leaf_spine(4, 2);
  const auto t = VrfTable::compute(g, 1);
  // Leaf 0 to leaf 1: both spines are valid next hops.
  EXPECT_EQ(t.next_hops(0, 1, 1).size(), 2u);
  EXPECT_EQ(t.distance(0, 1, 1), 2);
  // Leaf to spine: single direct hop.
  const NodeId spine = topo::leaf_spine_num_leaves(4, 2);
  EXPECT_EQ(t.next_hops(0, 1, spine).size(), 1u);
  EXPECT_EQ(t.next_hops(0, 1, spine)[0].port.neighbor, spine);
  EXPECT_EQ(t.distance(0, 1, spine), 1);
}

TEST(EcmpTable, DistancesMatchBfs) {
  const Graph g = topo::make_dring(6, 2, 1).graph;
  const auto t = VrfTable::compute(g, 1);
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    const auto d = topo::bfs_distances(g, dst);
    for (NodeId u = 0; u < g.num_switches(); ++u)
      EXPECT_EQ(t.distance(u, 1, dst), d[static_cast<std::size_t>(u)]);
  }
}

// Validity (loop-freedom + completeness) across the three §5.1 families.
class EcmpValidity : public ::testing::TestWithParam<int> {};

TEST_P(EcmpValidity, TableValidOnAllFamilies) {
  const int i = GetParam();
  const Graph graphs[] = {
      topo::make_leaf_spine(6 + i, 2),
      topo::make_dring(5 + i, 2, 1).graph,
      topo::make_rrg(12 + 2 * i, 4, 1, static_cast<std::uint64_t>(i)),
  };
  for (const Graph& g : graphs) {
    const auto t = VrfTable::compute(g, 1);
    EXPECT_TRUE(ecmp_table_valid(g, t)) << g.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EcmpValidity, ::testing::Range(0, 5));

TEST(EcmpTable, DirectNeighborHasSingleNextHopInFlatNetworks) {
  // The §4 motivation: adjacent racks in a flat network have exactly one
  // shortest path, so ECMP cannot spread their traffic.
  const Graph g = topo::make_dring(6, 2, 1).graph;
  const auto t = VrfTable::compute(g, 1);
  for (NodeId u = 0; u < g.num_switches(); ++u)
    for (const Port& p : g.neighbors(u))
      EXPECT_EQ(t.next_hops(u, 1, p.neighbor).size(), 1u);
}

TEST(EcmpTable, LeafSpineLeavesAlwaysHaveYNextHops) {
  // The contrast: leaf-spine leaves are never directly connected, so ECMP
  // always sees all y spines.
  const int y = 3;
  const Graph g = topo::make_leaf_spine(6, y);
  const auto t = VrfTable::compute(g, 1);
  const NodeId leaves = topo::leaf_spine_num_leaves(6, y);
  for (NodeId a = 0; a < leaves; ++a)
    for (NodeId b = 0; b < leaves; ++b)
      if (a != b) {
        EXPECT_EQ(t.next_hops(a, 1, b).size(), static_cast<std::size_t>(y));
      }
}

TEST(EcmpTable, DisconnectedGraphRejected) {
  Graph g(3);
  g.add_link(0, 1);
  EXPECT_THROW(VrfTable::compute(g, 1), spineless::Error);
}

// Incremental repair (the fault injector's reconvergence path): after a
// sequence of fail/restore toggles, recomputing only the affected
// destinations must land on exactly the table a full rebuild produces.
TEST(EcmpTable, IncrementalRepairMatchesFullRebuild) {
  const Graph g = topo::make_rrg(16, 4, 1, /*seed=*/7);
  VrfTable t = VrfTable::compute(g, 1);
  LinkSet dead;
  const std::pair<LinkId, bool> toggles[] = {
      {0, true}, {5, true}, {0, false}, {9, true}, {5, false}, {9, false}};
  for (const auto& [link, down] : toggles) {
    SCOPED_TRACE("link " + std::to_string(link) + (down ? " down" : " up"));
    const auto dsts = t.destinations_affected_by(g, link, down);
    if (down) {
      dead.insert(link);
    } else {
      dead.erase(link);
    }
    t.recompute_destinations(g, &dead, dsts);
    const VrfTable full = VrfTable::compute(g, 1, &dead);
    for (NodeId d = 0; d < g.num_switches(); ++d) {
      for (NodeId u = 0; u < g.num_switches(); ++u) {
        ASSERT_EQ(t.distance(u, 1, d), full.distance(u, 1, d))
            << u << "->" << d;
        const auto a = t.next_hops(u, 1, d);
        const auto b = full.next_hops(u, 1, d);
        ASSERT_EQ(a.size(), b.size()) << u << "->" << d;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].port.neighbor, b[i].port.neighbor);
          ASSERT_EQ(a[i].port.link, b[i].port.link);
        }
      }
    }
    EXPECT_TRUE(ecmp_table_valid(g, t, &dead));
  }
}

TEST(EcmpTable, RestoreRepairIsSoundOnACycle) {
  // Restoring a cycle link changes some destinations (the far side gets a
  // second equal-cost path) and leaves others alone; the affected-set plus
  // incremental recompute must still reproduce the full rebuild exactly.
  Graph g(4);
  for (NodeId i = 0; i < 4; ++i) g.add_link(i, (i + 1) % 4);
  g.set_servers(0, 1);
  LinkSet dead{0};
  VrfTable t = VrfTable::compute(g, 1, &dead);
  const auto dsts = t.destinations_affected_by(g, 0, /*now_dead=*/false);
  dead.erase(0);
  t.recompute_destinations(g, &dead, dsts);
  const VrfTable full = VrfTable::compute(g, 1);
  for (NodeId d = 0; d < 4; ++d)
    for (NodeId u = 0; u < 4; ++u)
      EXPECT_EQ(t.distance(u, 1, d), full.distance(u, 1, d));
  EXPECT_TRUE(ecmp_table_valid(g, t));
}

TEST(EcmpTable, ValidityCheckerCatchesCorruption) {
  // A hand-built table with a wrong next hop must fail validation: build a
  // valid table on a cycle, then check a *different* graph against it.
  Graph cyc(4);
  for (NodeId i = 0; i < 4; ++i) cyc.add_link(i, (i + 1) % 4);
  Graph line(4);
  line.add_link(0, 1);
  line.add_link(1, 2);
  line.add_link(2, 3);
  const auto t_line = VrfTable::compute(line, 1);
  EXPECT_FALSE(ecmp_table_valid(cyc, t_line));
}

}  // namespace
}  // namespace spineless::routing
