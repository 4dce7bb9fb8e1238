// Golden forwarding tables: every next-hop list and every distance of the
// VRF tables for K = 1..3, hashed, on a DRing, an RRG and a leaf-spine,
// healthy, with two dead links, and after incremental splices. Any change
// to a next-hop list's order, a weight or a distance fails here. The ECMP
// view of the K = 1 table is pinned to the values of the dedicated BFS
// ECMP table it replaced.
#include <gtest/gtest.h>

#include <cstdint>

#include "routing/vrf.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace spineless::routing {
namespace {

void mix(std::uint64_t& h, std::int64_t v) {
  h = splitmix64(h ^ static_cast<std::uint64_t>(v));
}

// The ECMP view of a K = 1 table: (dst, node) -> distance (-1 when
// unreachable) and the next hops' (neighbor, link).
std::uint64_t ecmp_hash(const Graph& g, const VrfTable& t) {
  std::uint64_t h = 0;
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    for (NodeId u = 0; u < g.num_switches(); ++u) {
      const int d = t.distance(u, 1, dst);
      mix(h, d >= VrfTable::kInfCost ? -1 : d);
      const auto hops = t.next_hops(u, 1, dst);
      mix(h, static_cast<std::int64_t>(hops.size()));
      for (const VrfHop& hop : hops) {
        mix(h, hop.port.neighbor);
        mix(h, hop.port.link);
      }
    }
  }
  return h;
}

// The VRF view: (dst, node, vrf) -> distance and the next hops' (neighbor,
// link, next_vrf, cost, weight).
std::uint64_t vrf_hash(const Graph& g, const VrfTable& t) {
  std::uint64_t h = 0;
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    for (NodeId u = 0; u < g.num_switches(); ++u) {
      for (int vrf = 1; vrf <= t.k(); ++vrf) {
        mix(h, t.distance(u, vrf, dst));
        const auto hops = t.next_hops(u, vrf, dst);
        mix(h, static_cast<std::int64_t>(hops.size()));
        for (const VrfHop& hop : hops) {
          mix(h, hop.port.neighbor);
          mix(h, hop.port.link);
          mix(h, hop.next_vrf);
          mix(h, hop.cost);
          mix(h, hop.weight);
        }
      }
    }
  }
  return h;
}

// Hashes of one table in four states: healthy; built with links a and b
// dead; the healthy table after splicing a down; that table after splicing
// b down (checked equal to the built one) and then a back up.
struct Golden {
  std::uint64_t healthy, dead, a_down, a_up;
};

template <class Hash>
Golden hashes(const Graph& g, int k, Hash hash) {
  const LinkId a = g.neighbors(0)[0].link;
  const LinkId b = g.neighbors(0)[1].link;
  const LinkSet both{a, b};
  Golden out{};
  VrfTable t = VrfTable::compute(g, k);
  out.healthy = hash(t);
  out.dead = hash(VrfTable::compute(g, k, &both));
  LinkSet dead;
  t.splice_link_change(g, dead, a, /*now_dead=*/true);
  out.a_down = hash(t);
  t.splice_link_change(g, dead, b, /*now_dead=*/true);
  EXPECT_EQ(hash(t), out.dead) << "splicing a and b down != building so";
  t.splice_link_change(g, dead, a, /*now_dead=*/false);
  out.a_up = hash(t);
  return out;
}

Golden ecmp_golden(const Graph& g) {
  return hashes(g, 1, [&](const VrfTable& t) { return ecmp_hash(g, t); });
}

Golden vrf_golden(const Graph& g, int k) {
  return hashes(g, k, [&](const VrfTable& t) { return vrf_hash(g, t); });
}

void expect_golden(const Golden& got, const Golden& want, const char* what) {
  EXPECT_EQ(got.healthy, want.healthy) << what << " healthy";
  EXPECT_EQ(got.dead, want.dead) << what << " dead";
  EXPECT_EQ(got.a_down, want.a_down) << what << " a_down";
  EXPECT_EQ(got.a_up, want.a_up) << what << " a_up";
}

// Leaf-spine with two spines: the two dead links strand leaf 0, so the
// unreachable rows are pinned too.
std::vector<Graph> golden_graphs() {
  return {topo::make_dring(6, 2, 1).graph, topo::make_rrg(16, 4, 1, 5),
          topo::make_leaf_spine(4, 2)};
}

TEST(TableGolden, EcmpTables) {
  const Golden want[] = {
      {14409736909016488347u, 10573019031185702056u, 2797835619727141888u,
       8122028025675031743u},
      {14999353708780373326u, 871569476264170007u, 11572655763325421059u,
       17370913992195752221u},
      {14389528492270287706u, 9866438232559520648u, 17815239054375575599u,
       2127088056216992439u},
  };
  const auto graphs = golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i)
    expect_golden(ecmp_golden(graphs[i]), want[i], graphs[i].name().c_str());
}

TEST(TableGolden, VrfTables) {
  const Golden want[][3] = {
      {{6035776311540715509u, 11058343597914974084u, 11761086881648749028u,
        17288817766254732420u},
       {17709192752308853083u, 2429545202054056286u, 14559667924094196766u,
        12140718957351923951u},
       {9645218730927488057u, 13188638699935983983u, 11645549867187495647u,
        4521910642496759518u}},
      {{9949817756066191095u, 2024286186975760708u, 12819543280399095376u,
        14856821832391394055u},
       {16011010049135681229u, 681685724958040323u, 14525521597722927259u,
        16456791179232371537u},
       {7674824366420026353u, 5375915051292005594u, 13038728177414004231u,
        15586120890965873376u}},
      {{407636902366403289u, 5348642252553195713u, 1182748638828728822u,
        15479876833162313476u},
       {357566840870000326u, 13152843002341231372u, 9366864945640720863u,
        14528963279416547638u},
       {16472422865632700269u, 16873017832579109266u, 10926112495074244575u,
        9113695815622395034u}},
  };
  const auto graphs = golden_graphs();
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    for (int k = 1; k <= 3; ++k) {
      SCOPED_TRACE(graphs[i].name() + " k=" + std::to_string(k));
      expect_golden(vrf_golden(graphs[i], k), want[i][k - 1], "vrf");
    }
  }
}

}  // namespace
}  // namespace spineless::routing
