#include "routing/bfs_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "reference_tables.h"
#include "routing/paths.h"
#include "routing/vrf.h"
#include "topo/analysis.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace spineless::routing {
namespace {

// 500 paths to 96 skewed destinations — more than the 64-entry distance
// cache, so the draws exercise hits, misses and eviction — hashed hop by
// hop.
std::uint64_t sample_hash(const Graph& g, BfsSampler& sampler) {
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
  BfsSampler sampler(g);
  EXPECT_EQ(sample_hash(g, sampler), 9728632969606215484ull);
}

TEST(BfsSampler, GoldenPathsOnLargeDring) {
  const Graph g = topo::make_dring(1200, 4, 2).graph;
  BfsSampler sampler(g);
  EXPECT_EQ(sample_hash(g, sampler), 11472566618063115198ull);
}

// A timing-free guard on the BFS work of the large-RRG draws: any change
// to how far rows and balls grow, when rows resume or how the cache evicts
// moves these counts. Full rows would scan every port once per row built;
// rows grown to src's level alone scanned 5794160 ports and resumed 64
// times here.
TEST(BfsSampler, WorkOnLargeRrgIsPinned) {
  const Graph g = topo::make_rrg(4500, 16, 2, 11);
  BfsSampler sampler(g);
  sample_hash(g, sampler);
  const BfsSampler::Counters& work = sampler.counters();
  EXPECT_EQ(work.rows_built, 187u);
  EXPECT_EQ(work.rows_resumed, 10u);
  EXPECT_EQ(work.row_edge_visits, 49584u);
  EXPECT_EQ(work.ball_edge_visits, 103934u);
  EXPECT_LT(work.row_edge_visits + work.ball_edge_visits,
            work.rows_built * 2 * static_cast<std::uint64_t>(g.num_links()));
}

// 200 paths under SU(k) (k = 1 is ECMP) between uniformly drawn switch
// pairs — equal, adjacent and distant endpoints alike — hashed hop by hop.
std::uint64_t su_sample_hash(const Graph& g, int k) {
  BfsSampler sampler(g, k);
  Rng rng(0x90d1 + static_cast<std::uint64_t>(k));
  std::uint64_t h = 0;
  for (int i = 0; i < 200; ++i) {
    const auto src = static_cast<NodeId>(rng.uniform(g.num_switches()));
    const auto dst = static_cast<NodeId>(rng.uniform(g.num_switches()));
    const Path p = sampler.sample(src, dst, rng);
    h = splitmix64(h ^ p.size());
    for (NodeId n : p) h = splitmix64(h ^ static_cast<std::uint64_t>(n));
  }
  return h;
}

// Golden values from the all-pairs table walks (the ECMP table for k = 1,
// the VRF table otherwise) that drew every fluid path up to 4096 switches:
// the table-free walk must make the same draws.
TEST(BfsSampler, GoldenTableWalkPathsOnSmallDring) {
  const Graph g = topo::make_dring(6, 2, 1).graph;
  EXPECT_EQ(su_sample_hash(g, 1), 6776021563141773943ull);
  EXPECT_EQ(su_sample_hash(g, 2), 9738505064612658742ull);
  EXPECT_EQ(su_sample_hash(g, 3), 10856751090657544476ull);
}

TEST(BfsSampler, GoldenTableWalkPathsOnRrg) {
  const Graph g = topo::make_rrg(64, 6, 1, 3);
  EXPECT_EQ(su_sample_hash(g, 1), 13876611835804020055ull);
  EXPECT_EQ(su_sample_hash(g, 2), 16017812301776826339ull);
  EXPECT_EQ(su_sample_hash(g, 3), 1830546993147375856ull);
}

TEST(BfsSampler, GoldenTableWalkPathsOnLeafSpine) {
  const Graph g = topo::make_leaf_spine(6, 3);
  EXPECT_EQ(su_sample_hash(g, 1), 4365914080355712389ull);
  EXPECT_EQ(su_sample_hash(g, 2), 18400780376011974474ull);
  EXPECT_EQ(su_sample_hash(g, 3), 15745552675281299108ull);
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
  BfsSampler sampler(g, 1, mask);
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
  BfsSampler sampler(g, 1, mask);
  Rng rng(1);
  EXPECT_TRUE(sampler.sample(0, 2, rng).empty());
  EXPECT_EQ(sampler.sample(0, 1, rng), (Path{0, 1}));
}

TEST(BfsSampler, EcmpWalkOnALineAndUnreachableAfterACut) {
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(2, 3);
  BfsSampler sampler(g);
  Rng rng(1);
  EXPECT_EQ(sampler.sample(0, 3, rng), (Path{0, 1, 2, 3}));
  EXPECT_EQ(sampler.sample(2, 2, rng), (Path{2}));
  sampler.set_link_dead(1, true);
  EXPECT_TRUE(sampler.sample(0, 3, rng).empty());
}

// The reference the sampler replaces: walk the all-pairs VRF table from
// (VRF K, src), one rng.uniform over each state's next-hop set per hop,
// ending at the first visit to dst.
Path table_walk(const VrfTable& t, NodeId src, NodeId dst, Rng& rng) {
  if (t.source_distance(src, dst) >= VrfTable::kInfCost) return {};
  Path path{src};
  int vrf = t.k();
  for (NodeId node = src; node != dst;) {
    const auto hops = t.next_hops(node, vrf, dst);
    const VrfHop& h = hops[rng.uniform(hops.size())];
    node = h.port.neighbor;
    vrf = h.next_vrf;
    path.push_back(node);
  }
  return path;
}

Graph ring(NodeId n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i) g.add_link(i, (i + 1) % n);
  return g;
}

// Small graphs for the exhaustive properties: a DRing (odd cycles), an RRG,
// a leaf-spine (bipartite, so walk parity matters near dst) and an odd
// ring (distances up to 10, far past 2K).
std::vector<Graph> property_graphs() {
  return {topo::make_dring(5, 2, 1).graph, topo::make_rrg(16, 4, 1, 5),
          topo::make_leaf_spine(3, 2), ring(21)};
}

template <class Sampler>
void set_dead(const Graph& g, const LinkSet* dead, Sampler& sampler) {
  for (LinkId l = 0; dead != nullptr && l < g.num_links(); ++l)
    if (dead->contains(l)) sampler.set_link_dead(l, true);
}

// Two dead links around switch 0, which can strand it.
LinkSet dead_around_switch0(const Graph& g) {
  return {g.neighbors(0)[0].link, g.neighbors(0)[1].link};
}

// The table and the sampler read one closed form; both must equal an
// independent Dijkstra over the VRF graph at every state.
void expect_distances_match(const Graph& g, int k, const LinkSet* dead) {
  const VrfTable t = VrfTable::compute(g, k, dead);
  BfsSampler sampler(g, k);
  set_dead(g, dead, sampler);
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    const auto ref = reference_vrf_distances(g, k, dead, dst);
    for (NodeId n = 0; n < g.num_switches(); ++n) {
      for (int j = 1; j <= k; ++j) {
        const int want = ref[static_cast<std::size_t>(n * k + j - 1)];
        ASSERT_EQ(t.distance(n, j, dst), want)
            << "k=" << k << " dst=" << dst << " node=" << n << " vrf=" << j;
        ASSERT_EQ(sampler.distance(n, j, dst), want)
            << "k=" << k << " dst=" << dst << " node=" << n << " vrf=" << j;
      }
    }
  }
}

TEST(BfsSampler, VrfDistancesEqualTheTable) {
  for (const Graph& g : property_graphs()) {
    for (int k = 1; k <= 4; ++k) {
      expect_distances_match(g, k, nullptr);
      const LinkSet dead = dead_around_switch0(g);
      expect_distances_match(g, k, &dead);
    }
  }
}

void expect_draws_match(const Graph& g, int k, const LinkSet* dead) {
  const VrfTable t = VrfTable::compute(g, k, dead);
  BfsSampler sampler(g, k);
  set_dead(g, dead, sampler);
  Rng a(k), b(k);
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(a.uniform(g.num_switches()));
    const auto dst = static_cast<NodeId>(a.uniform(g.num_switches()));
    b.uniform(g.num_switches());
    b.uniform(g.num_switches());
    ASSERT_EQ(sampler.sample(src, dst, a), table_walk(t, src, dst, b))
        << "k=" << k << " i=" << i;
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(BfsSampler, DrawsEqualTheTableWalk) {
  std::vector<Graph> graphs = property_graphs();
  graphs.push_back(topo::make_rrg(200, 3, 1, 9));  // many hops at d >= 2K
  for (const Graph& g : graphs) {
    for (int k = 1; k <= 4; ++k) {
      expect_draws_match(g, k, nullptr);
      const LinkSet dead = dead_around_switch0(g);
      expect_draws_match(g, k, &dead);
    }
  }
}

// Drives `lazy` through early exits, resumes and evictions: each
// destination's sources come nearest first, 80 destinations (more than
// the cache holds) come round twice, and distance() calls complete other
// rows between draws. `full` completes each row with distance() before
// drawing on it, so its draws are those of complete rows.
void expect_lazy_rows_match(const Graph& g, int k, BfsSampler& lazy,
                            BfsSampler& full) {
  const NodeId n = g.num_switches();
  Rng a(k), b(k);
  int step = 0;
  for (int round = 0; round < 2; ++round) {
    for (NodeId i = 0; i < 80; ++i) {
      const NodeId dst = i * 37 % n;
      const auto dist = topo::bfs_distances(g, dst);
      std::vector<NodeId> srcs(static_cast<std::size_t>(n));
      std::iota(srcs.begin(), srcs.end(), 0);
      std::stable_sort(srcs.begin(), srcs.end(), [&](NodeId x, NodeId y) {
        return dist[static_cast<std::size_t>(x)] <
               dist[static_cast<std::size_t>(y)];
      });
      // Every near source, then ever sparser far ones.
      for (std::size_t s = 1; s < srcs.size(); s += 1 + s / 4) {
        const NodeId src = srcs[s];
        full.distance(src, k, dst);
        const Path p = lazy.sample(src, dst, a);
        ASSERT_EQ(p, full.sample(src, dst, b))
            << "k=" << k << " dst=" << dst << " src=" << src;
        if (++step % 5 == 0) {
          const NodeId other = (dst + step) % n;
          ASSERT_EQ(lazy.distance(src, 1, other), full.distance(src, 1, other))
              << "k=" << k << " dst=" << other << " node=" << src;
        }
      }
    }
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(BfsSampler, ResumedAndEvictedRowsDrawLikeCompleteRows) {
  std::vector<Graph> graphs = property_graphs();
  graphs.push_back(topo::make_rrg(200, 3, 1, 9));
  std::uint64_t resumed = 0, most_built = 0;
  auto run = [&](const Graph& g, int k, BfsSampler& lazy, BfsSampler& full) {
    expect_lazy_rows_match(g, k, lazy, full);
    resumed += lazy.counters().rows_resumed;
    most_built = std::max(most_built, lazy.counters().rows_built);
  };
  for (const Graph& g : graphs) {
    const LinkSet dead = dead_around_switch0(g);
    for (int k = 1; k <= 4; ++k) {
      for (const LinkSet* d : {static_cast<const LinkSet*>(nullptr), &dead}) {
        BfsSampler lazy(g, k), full(g, k);
        set_dead(g, d, lazy);
        set_dead(g, d, full);
        run(g, k, lazy, full);
      }
    }
    // The fault re-path sampler's shape: K = 1 with every fifth switch
    // excluded from transit.
    std::vector<char> mask(static_cast<std::size_t>(g.num_switches()));
    for (std::size_t i = 0; i < mask.size(); i += 5) mask[i] = 1;
    BfsSampler lazy(g, 1, mask), full(g, 1, mask);
    run(g, 1, lazy, full);
  }
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(most_built, 64u);  // the 64-row cache evicted
}

// Draws 1500 seeded pairs through one long-lived sampler and the one-sided
// reference, checking every path and the Rng state after every draw. The
// destinations are 96 skewed switches, more than the 64-row cache holds,
// each met again by fresh sources, so rows are hit, resumed and evicted;
// one pair in eight has equal endpoints and one in eight adjacent ones.
// Then 300 uniform pairs each on a fresh sampler, whose rows stop exactly
// where the two sides meet.
void expect_meet_equals_row(const Graph& g, int k, const LinkSet* dead,
                            std::span<const char> mask,
                            BfsSampler::Counters& work) {
  BfsSampler sampler(g, k, mask);
  ReferenceRowSampler ref(g, k, mask);
  set_dead(g, dead, sampler);
  set_dead(g, dead, ref);
  const NodeId n = g.num_switches();
  Rng pairs(0x3e37 + static_cast<std::uint64_t>(k)), a(k), b(k);
  for (int i = 0; i < 1500; ++i) {
    const auto dst = static_cast<NodeId>(pairs.uniform(96) * 37 % n);
    auto src = static_cast<NodeId>(pairs.uniform(n));
    if (i % 8 == 0) src = dst;
    if (i % 8 == 1) {
      const auto& ports = g.neighbors(dst);
      src = ports[pairs.uniform(ports.size())].neighbor;
    }
    ASSERT_EQ(sampler.sample(src, dst, a), ref.sample(src, dst, b))
        << "k=" << k << " i=" << i << " src=" << src << " dst=" << dst;
    ASSERT_EQ(a.state(), b.state()) << "k=" << k << " i=" << i;
  }
  const BfsSampler::Counters& c = sampler.counters();
  work.rows_built += c.rows_built;
  work.rows_resumed += c.rows_resumed;
  work.row_edge_visits += c.row_edge_visits;
  work.ball_edge_visits += c.ball_edge_visits;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(pairs.uniform(n));
    const auto dst = static_cast<NodeId>(pairs.uniform(n));
    BfsSampler fresh(g, k, mask);
    ReferenceRowSampler fresh_ref(g, k, mask);
    set_dead(g, dead, fresh);
    set_dead(g, dead, fresh_ref);
    ASSERT_EQ(fresh.sample(src, dst, a), fresh_ref.sample(src, dst, b))
        << "fresh k=" << k << " i=" << i << " src=" << src << " dst=" << dst;
    ASSERT_EQ(a.state(), b.state()) << "fresh k=" << k << " i=" << i;
  }
}

TEST(BfsSampler, MeetInTheMiddleEqualsOneSidedRow) {
  // A DRing (long rings of supernodes), a sparse RRG (diameter ~10, far
  // past 2K - 2 for every K) and a leaf-spine (distance 2 between leaves).
  const std::vector<Graph> graphs = {topo::make_dring(40, 3, 1).graph,
                                     topo::make_rrg(600, 3, 1, 9),
                                     topo::make_leaf_spine(24, 6)};
  for (const Graph& g : graphs) {
    BfsSampler::Counters work;
    const LinkSet dead = dead_around_switch0(g);
    LinkSet many_dead;  // every seventh link, all over the graph
    for (LinkId l = 3; l < g.num_links(); l += 7) many_dead.insert(l);
    for (int k = 1; k <= 4; ++k) {
      expect_meet_equals_row(g, k, nullptr, {}, work);
      expect_meet_equals_row(g, k, &dead, {}, work);
      expect_meet_equals_row(g, k, &many_dead, {}, work);
    }
    // The fault re-path sampler's shape: K = 1, every fifth switch
    // excluded from transit.
    std::vector<char> mask(static_cast<std::size_t>(g.num_switches()));
    for (std::size_t i = 0; i < mask.size(); i += 5) mask[i] = 1;
    expect_meet_equals_row(g, 1, nullptr, mask, work);
    expect_meet_equals_row(g, 1, &dead, mask, work);
    EXPECT_GT(work.rows_built, 64u);  // the cache evicted
    EXPECT_GT(work.rows_resumed, 0u);
    EXPECT_GT(work.ball_edge_visits, 0u);  // src-side balls were grown
  }
}

// Every simple path of SU(K) is drawn and nothing else simple is. Like the
// table walk (and the packet engine's VRF forwarding), K >= 3 can also draw
// a walk that revisits a switch, e.g. src, x, src, dst for adjacent src
// and dst; it is never longer than max(L, K).
TEST(BfsSampler, SampledPathSetIsShortestUnion) {
  for (const Graph& g : property_graphs()) {
    for (int k = 1; k <= 4; ++k) {
      BfsSampler sampler(g, k);
      Rng rng(99);
      const NodeId src = 1;
      const auto dist = topo::bfs_distances(g, src);
      for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
        if (dst == src) continue;
        const int bound = std::max(dist[static_cast<std::size_t>(dst)], k);
        const PathSet su = shortest_union_paths(g, src, dst, k, 8192);
        std::set<Path> simple;
        for (std::size_t i = 0; i < 40 * su.size(); ++i) {
          const Path p = sampler.sample(src, dst, rng);
          ASSERT_LE(path_length(p), bound);
          ASSERT_EQ(p.back(), dst);
          for (std::size_t h = 0; h + 1 < p.size(); ++h)
            ASSERT_TRUE(g.adjacent(p[h], p[h + 1]));
          if (std::set<NodeId>(p.begin(), p.end()).size() == p.size())
            simple.insert(p);
        }
        EXPECT_EQ(simple, std::set<Path>(su.begin(), su.end()))
            << "k=" << k << " dst=" << dst;
      }
    }
  }
}

}  // namespace
}  // namespace spineless::routing
