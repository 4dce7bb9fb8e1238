#include "topo/builders.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "topo/analysis.h"

namespace spineless::topo {
namespace {

// ---------------------------------------------------------------- leaf-spine

struct LeafSpineCase {
  int x, y;
};

class LeafSpineProperties : public ::testing::TestWithParam<LeafSpineCase> {};

TEST_P(LeafSpineProperties, StructureMatchesDefinition) {
  const auto [x, y] = GetParam();
  const Graph g = make_leaf_spine(x, y);
  ASSERT_EQ(g.num_switches(), x + 2 * y);
  EXPECT_EQ(g.num_links(), (x + y) * y);  // every leaf to every spine
  EXPECT_EQ(g.total_servers(), x * (x + y));
  // Leaves: y network ports + x servers; spines: x+y network ports.
  for (NodeId leaf = 0; leaf < leaf_spine_num_leaves(x, y); ++leaf) {
    EXPECT_EQ(g.network_degree(leaf), y);
    EXPECT_EQ(g.servers(leaf), x);
  }
  for (NodeId s = leaf_spine_num_leaves(x, y); s < g.num_switches(); ++s) {
    EXPECT_EQ(g.network_degree(s), x + y);
    EXPECT_EQ(g.servers(s), 0);
  }
  EXPECT_TRUE(g.connected());
  EXPECT_NO_THROW(g.validate_ports());
}

TEST_P(LeafSpineProperties, LeavesNeverDirectlyConnected) {
  const auto [x, y] = GetParam();
  const Graph g = make_leaf_spine(x, y);
  for (NodeId a = 0; a < leaf_spine_num_leaves(x, y); ++a)
    for (NodeId b = a + 1; b < leaf_spine_num_leaves(x, y); ++b)
      EXPECT_FALSE(g.adjacent(a, b));
}

TEST_P(LeafSpineProperties, DiameterIsTwo) {
  const auto [x, y] = GetParam();
  const Graph g = make_leaf_spine(x, y);
  EXPECT_EQ(path_length_stats(g).diameter, 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LeafSpineProperties,
                         ::testing::Values(LeafSpineCase{3, 1},
                                           LeafSpineCase{4, 2},
                                           LeafSpineCase{6, 2},
                                           LeafSpineCase{12, 4},
                                           LeafSpineCase{9, 3},
                                           LeafSpineCase{48, 16}));

TEST(LeafSpine, RejectsNonPositiveParams) {
  EXPECT_THROW(make_leaf_spine(0, 1), Error);
  EXPECT_THROW(make_leaf_spine(1, 0), Error);
}

// -------------------------------------------------------------------- DRing

struct DRingCase {
  int m, n;
};

class DRingProperties : public ::testing::TestWithParam<DRingCase> {};

TEST_P(DRingProperties, AllSwitchesSymmetricAndCorrectDegree) {
  const auto [m, n] = GetParam();
  const DRing d = make_dring(m, n, /*servers_per_tor=*/4);
  const Graph& g = d.graph;
  ASSERT_EQ(g.num_switches(), m * n);
  EXPECT_TRUE(g.connected());
  // For m >= 5 every ToR sees 4 adjacent-supernode neighborhoods of n ToRs.
  const int expected_degree = m >= 5 ? 4 * n : (m == 4 ? 3 * n : 2 * n);
  for (NodeId t = 0; t < g.num_switches(); ++t) {
    EXPECT_EQ(g.network_degree(t), expected_degree) << "tor " << t;
    EXPECT_EQ(g.servers(t), 4);
  }
}

TEST_P(DRingProperties, AdjacencyFollowsSupergraph) {
  const auto [m, n] = GetParam();
  const DRing d = make_dring(m, n, 1);
  const Graph& g = d.graph;
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    for (NodeId b = a + 1; b < g.num_switches(); ++b) {
      const int sa = d.supernode_of[static_cast<std::size_t>(a)];
      const int sb = d.supernode_of[static_cast<std::size_t>(b)];
      const int fwd = (sb - sa + m) % m;
      const int diff = std::min(fwd, m - fwd);
      const bool should_link = diff == 1 || diff == 2;
      EXPECT_EQ(g.adjacent(a, b), should_link)
          << "tors " << a << "," << b << " supernodes " << sa << "," << sb;
    }
  }
}

TEST_P(DRingProperties, SameSupernodeNeverLinked) {
  const auto [m, n] = GetParam();
  const DRing d = make_dring(m, n, 1);
  for (NodeId a = 0; a < d.graph.num_switches(); ++a)
    for (NodeId b = a + 1; b < d.graph.num_switches(); ++b)
      if (d.supernode_of[static_cast<std::size_t>(a)] ==
          d.supernode_of[static_cast<std::size_t>(b)]) {
        EXPECT_FALSE(d.graph.adjacent(a, b));
      }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DRingProperties,
                         ::testing::Values(DRingCase{3, 2}, DRingCase{4, 2},
                                           DRingCase{5, 1}, DRingCase{5, 3},
                                           DRingCase{8, 2}, DRingCase{10, 2},
                                           DRingCase{12, 4}));

TEST(DRing, DiameterGrowsLinearlyWithSupernodes) {
  // Ring supergraph with +1/+2 chords: supernode distance ~ m/4, so the
  // switch-level diameter grows with m — the structural reason DRing
  // deteriorates at scale (§6.3).
  const int d10 = path_length_stats(make_dring(10, 2, 1).graph).diameter;
  const int d20 = path_length_stats(make_dring(20, 2, 1).graph).diameter;
  EXPECT_GT(d20, d10);
}

TEST(DRing, RejectsTooFewSupernodes) {
  EXPECT_THROW(make_dring(2, 2, 1), Error);
}

TEST(DRing, PortBudgetEnforced) {
  // 5 supernodes x 2 ToRs: degree 8, so 10 ports cannot host 4 servers.
  EXPECT_THROW(make_dring(5, 2, 4, /*ports_per_switch=*/10), Error);
  EXPECT_NO_THROW(make_dring(5, 2, 2, /*ports_per_switch=*/10));
}

TEST(DRingEquipment, PaperConfigMatchesPublishedNumbers) {
  // §5.1: 80 switches of 64 ports in 12 supernodes -> 80 racks, ~2988
  // servers ("about 2.8% fewer" than the 3072-server leaf-spine). The
  // exact count depends on how the uneven supernode sizes are arranged
  // around the ring (2982..2992 across arrangements); our Bresenham
  // interleaving gives 2992, within 0.15% of the paper's 2988.
  const DRing d = make_dring_equipment(80, 64, -1, 12);
  EXPECT_EQ(d.graph.num_switches(), 80);
  EXPECT_EQ(d.graph.total_servers(), 2992);
  EXPECT_NEAR(d.graph.total_servers(), 2988, 6);
  EXPECT_TRUE(d.graph.connected());
  EXPECT_NO_THROW(d.graph.validate_ports());
}

TEST(DRingEquipment, ExplicitServerCountHonored) {
  const DRing d = make_dring_equipment(20, 16, 100, 10);
  EXPECT_EQ(d.graph.total_servers(), 100);
  EXPECT_NO_THROW(d.graph.validate_ports());
}

TEST(DRingEquipment, OverCapacityRejected) {
  EXPECT_THROW(make_dring_equipment(20, 16, 10'000, 10), Error);
}

TEST(DRingEquipment, ServersSpreadEvenly) {
  const DRing d = make_dring_equipment(20, 16, 100, 10);
  int lo = 1 << 30, hi = 0;
  for (NodeId t = 0; t < d.graph.num_switches(); ++t) {
    lo = std::min(lo, d.graph.servers(t));
    hi = std::max(hi, d.graph.servers(t));
  }
  EXPECT_LE(hi - lo, 1);
}

// ---------------------------------------------------------------------- RRG

struct RrgCase {
  int n, degree;
  std::uint64_t seed;
};

class RrgProperties : public ::testing::TestWithParam<RrgCase> {};

TEST_P(RrgProperties, RegularSimpleConnected) {
  const auto [n, degree, seed] = GetParam();
  const Graph g = make_rrg(n, degree, /*servers=*/2, seed);
  ASSERT_EQ(g.num_switches(), n);
  EXPECT_TRUE(g.connected());
  for (NodeId u = 0; u < g.num_switches(); ++u)
    EXPECT_EQ(g.network_degree(u), degree);
  // Simple: no duplicate neighbor entries.
  for (NodeId u = 0; u < g.num_switches(); ++u) {
    std::set<NodeId> nbrs;
    for (const Port& p : g.neighbors(u)) {
      EXPECT_NE(p.neighbor, u);
      EXPECT_TRUE(nbrs.insert(p.neighbor).second)
          << "duplicate edge at " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RrgProperties,
    ::testing::Values(RrgCase{8, 3, 1}, RrgCase{10, 4, 2}, RrgCase{16, 5, 3},
                      RrgCase{20, 8, 4}, RrgCase{40, 12, 5},
                      RrgCase{80, 26, 6}, RrgCase{9, 4, 7}));

TEST(Rrg, DeterministicForSameSeed) {
  const Graph a = make_rrg(20, 4, 1, 99);
  const Graph b = make_rrg(20, 4, 1, 99);
  ASSERT_EQ(a.num_links(), b.num_links());
  for (LinkId l = 0; l < a.num_links(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
  }
}

TEST(Rrg, DifferentSeedsGiveDifferentWirings) {
  const Graph a = make_rrg(20, 4, 1, 1);
  const Graph b = make_rrg(20, 4, 1, 2);
  bool any_different = false;
  for (LinkId l = 0; l < a.num_links() && !any_different; ++l)
    any_different = a.link(l).a != b.link(l).a || a.link(l).b != b.link(l).b;
  EXPECT_TRUE(any_different);
}

TEST(Rrg, DegreeMustBeLessThanNodes) {
  EXPECT_THROW(make_rrg(4, 4, 1, 1), Error);
}

TEST(Rrg, OddTotalDegreeRejected) {
  // 3 nodes of degree 3 -> odd stub total.
  EXPECT_THROW(make_rrg_with_degrees({3, 3, 3}, {1, 1, 1}, 1), Error);
}

TEST(Rrg, DegreeSequenceRealized) {
  const std::vector<int> degrees{3, 3, 2, 2, 2, 2};
  const Graph g = make_rrg_with_degrees(degrees, {1, 1, 1, 1, 1, 1}, 5);
  for (NodeId u = 0; u < g.num_switches(); ++u)
    EXPECT_EQ(g.network_degree(u), degrees[static_cast<std::size_t>(u)]);
}

// Message of the Error thrown by make_rrg_with_degrees, or "" if none.
std::string rrg_error(const std::vector<int>& degrees) {
  try {
    make_rrg_with_degrees(degrees, std::vector<int>(degrees.size(), 1), 1);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Rrg, ImpossibleDegreesRejectedUpFront) {
  const auto expect_error = [](const std::vector<int>& degrees,
                               const std::string& needle) {
    const std::string what = rrg_error(degrees);
    EXPECT_NE(what.find(needle), std::string::npos)
        << "expected \"" << needle << "\" in \"" << what << "\"";
  };
  expect_error({}, "at least 2 switches, got 0");
  expect_error({3}, "at least 2 switches, got 1");
  expect_error({2, 0, 2, 2}, "switch 1 has network degree 0");
  expect_error({2, 2, -2, 2}, "switch 2 has network degree -2");
  expect_error({2, 2, 2, 4}, "switch 3 has network degree 4");
  expect_error({2, 2, 2, 4}, "[1, 3]");
  expect_error({1, 2, 1, 1}, "odd total network degree 5");
}

TEST(Rrg, ImpossibleDegreesFailFast) {
  // Rejected before any wiring attempt: 64 failed attempts at n = 2000 take
  // seconds.
  std::vector<int> degrees(2000, 8);
  degrees[1234] = 0;
  EXPECT_NE(rrg_error(degrees).find("switch 1234 has network degree 0"),
            std::string::npos);
}

// FNV-1a-style 64-bit fingerprint of a graph's wiring: every link's endpoints
// in link order, then every switch's server count in id order.
std::uint64_t wiring_hash(const Graph& g) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t x = 1469598103934665603ULL;
  for (const Link& l : g.links()) {
    x = (x ^ static_cast<std::uint64_t>(l.a)) * kPrime;
    x = (x ^ static_cast<std::uint64_t>(l.b)) * kPrime;
  }
  for (NodeId u = 0; u < g.num_switches(); ++u)
    x = (x ^ static_cast<std::uint64_t>(g.servers(u))) * kPrime;
  return x;
}

// Golden wirings: any change to the random builders' RNG draw order or edge
// order changes these, and with them every downstream result_hash. The
// failure messages name the wire_random branch each case exercises.
TEST(RrgGolden, WiringIsPinned) {
  EXPECT_EQ(wiring_hash(make_rrg(8, 3, 2, 1)), 3279248276626088643ULL)
      << "split repair";
  EXPECT_EQ(wiring_hash(make_rrg(10, 4, 2, 2)), 14884675155598121331ULL)
      << "rewire repair";
  EXPECT_EQ(wiring_hash(make_rrg(40, 12, 2, 5)), 13860139863970332305ULL)
      << "both repairs";
  EXPECT_EQ(wiring_hash(make_rrg(80, 26, 2, 6)), 16619133819955850287ULL);
  EXPECT_EQ(wiring_hash(make_rrg(18, 17, 2, 22)), 77159429736490000ULL)
      << "exhaustive-pair scan";
  EXPECT_EQ(wiring_hash(make_rrg(20, 19, 2, 6)), 1266697425839219843ULL)
      << "exhaustive-pair scan";
  EXPECT_EQ(wiring_hash(flatten_leaf_spine(8, 12, 7)), 793325415978430807ULL);
  EXPECT_EQ(wiring_hash(make_rrg_with_degrees({3, 3, 2, 2, 2, 2},
                                              {1, 1, 1, 1, 1, 1}, 5)),
            16993320709819311210ULL);
}

TEST(RrgGolden, BenchmarkGraphIsPinned) {
  // The 20k-switch RRG of the fig6 rng tier and the benchmark.
  EXPECT_EQ(wiring_hash(make_rrg(20000, 16, 2, 35001)),
            17481256520500703969ULL);
}

// ------------------------------------------------------------ flat transform

class FlattenProperties
    : public ::testing::TestWithParam<LeafSpineCase> {};

TEST_P(FlattenProperties, SameEquipmentAsBaseline) {
  const auto [x, y] = GetParam();
  const Graph flat = flatten_leaf_spine(x, y, 7);
  EXPECT_EQ(flat.num_switches(), x + 2 * y);
  // Server count matches up to the single parity adjustment.
  EXPECT_GE(flat.total_servers(), x * (x + y) - 1);
  EXPECT_LE(flat.total_servers(), x * (x + y));
  // No switch exceeds the x+y port budget.
  for (NodeId u = 0; u < flat.num_switches(); ++u)
    EXPECT_LE(flat.ports_used(u), x + y);
  EXPECT_TRUE(flat.connected());
}

TEST_P(FlattenProperties, EverySwitchHostsServers) {
  const auto [x, y] = GetParam();
  const Graph flat = flatten_leaf_spine(x, y, 7);
  for (NodeId u = 0; u < flat.num_switches(); ++u)
    EXPECT_GT(flat.servers(u), 0);
}

TEST_P(FlattenProperties, ServersSpreadWithinOne) {
  const auto [x, y] = GetParam();
  const Graph flat = flatten_leaf_spine(x, y, 7);
  int lo = 1 << 30, hi = 0;
  for (NodeId u = 0; u < flat.num_switches(); ++u) {
    lo = std::min(lo, flat.servers(u));
    hi = std::max(hi, flat.servers(u));
  }
  EXPECT_LE(hi - lo, 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlattenProperties,
                         ::testing::Values(LeafSpineCase{6, 2},
                                           LeafSpineCase{12, 4},
                                           LeafSpineCase{24, 8},
                                           LeafSpineCase{48, 16}));

// ------------------------------------------------------------------ Xpander

TEST(Xpander, LiftStructure) {
  const Graph g = make_xpander(/*net_degree=*/4, /*lift=*/6,
                               /*servers=*/2, /*seed=*/3);
  EXPECT_EQ(g.num_switches(), 5 * 6);
  EXPECT_TRUE(g.connected());
  for (NodeId u = 0; u < g.num_switches(); ++u)
    EXPECT_EQ(g.network_degree(u), 4);
  // No edges within a lifted column.
  for (NodeId u = 0; u < g.num_switches(); ++u)
    for (const Port& p : g.neighbors(u))
      EXPECT_NE(u / 6, p.neighbor / 6);
}

TEST(Xpander, LiftOneIsCompleteGraph) {
  const Graph g = make_xpander(3, 1, 1, 1);
  EXPECT_EQ(g.num_switches(), 4);
  EXPECT_EQ(g.num_links(), 6);
}

// ---------------------------------------------------------------- Dragonfly

TEST(Dragonfly, BalancedConfigStructure) {
  // a=4, h=1, groups = a*h+1 = 5: one global link per group pair.
  const Graph g = make_dragonfly(5, 4, 1, 2);
  EXPECT_EQ(g.num_switches(), 20);
  EXPECT_TRUE(g.connected());
  // Links: 5 groups x C(4,2) intra + C(5,2) global.
  EXPECT_EQ(g.num_links(), 5 * 6 + 10);
  // Every switch: 3 intra + exactly 1 global port used.
  for (NodeId u = 0; u < g.num_switches(); ++u)
    EXPECT_EQ(g.network_degree(u), 4);
  EXPECT_EQ(path_length_stats(g).diameter, 3);
}

// Switch id = group * a + index, so a switch's group is id / a.
TEST(Dragonfly, IntraGroupIsComplete) {
  const Graph g = make_dragonfly(4, 3, 1, 1);
  for (NodeId u = 0; u < g.num_switches(); ++u) {
    for (NodeId v = u + 1; v < g.num_switches(); ++v) {
      if (u / 3 == v / 3) {
        EXPECT_TRUE(g.adjacent(u, v)) << u << "," << v;
      }
    }
  }
}

TEST(Dragonfly, EveryGroupPairLinked) {
  const int a = 5, groups = 8;
  const Graph g = make_dragonfly(groups, a, 2, 4);
  std::vector<std::vector<bool>> pair(static_cast<std::size_t>(groups),
                                      std::vector<bool>(static_cast<std::size_t>(groups), false));
  for (const Link& l : g.links()) {
    const int gi = l.a / a;
    const int gj = l.b / a;
    pair[static_cast<std::size_t>(gi)][static_cast<std::size_t>(gj)] = true;
    pair[static_cast<std::size_t>(gj)][static_cast<std::size_t>(gi)] = true;
  }
  for (int i = 0; i < groups; ++i)
    for (int j = 0; j < groups; ++j)
      if (i != j) {
        EXPECT_TRUE(pair[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)]);
      }
}

TEST(Dragonfly, GlobalPortBudgetRespected) {
  const int a = 5, h = 2, groups = 8;
  const Graph g = make_dragonfly(groups, a, h, 0);
  for (NodeId u = 0; u < g.num_switches(); ++u) {
    int global = 0;
    for (const Port& p : g.neighbors(u))
      global += p.neighbor / a != u / a;
    EXPECT_LE(global, h);
  }
}

TEST(Dragonfly, RejectsUnderConnectedConfig) {
  // a*h = 2 < groups-1 = 4: some pairs could never be linked.
  EXPECT_THROW(make_dragonfly(5, 2, 1, 1), Error);
}

}  // namespace
}  // namespace spineless::topo
