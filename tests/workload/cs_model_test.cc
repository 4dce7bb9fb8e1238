#include "workload/cs_model.h"

#include <gtest/gtest.h>

#include <set>

#include "topo/builders.h"
#include "util/error.h"

namespace spineless::workload {
namespace {

TEST(CsModel, SizesAndDisjointness) {
  const Graph g = topo::make_dring(6, 2, 4).graph;  // 48 hosts
  Rng rng(1);
  const CsSets sets = make_cs_sets(g, 10, 20, rng);
  EXPECT_EQ(sets.clients.size(), 10u);
  EXPECT_EQ(sets.servers.size(), 20u);
  std::set<topo::HostId> c(sets.clients.begin(), sets.clients.end());
  std::set<topo::HostId> s(sets.servers.begin(), sets.servers.end());
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(s.size(), 20u);
  for (auto h : c) EXPECT_FALSE(s.count(h));
}

TEST(CsModel, ClientAndServerRacksDisjoint) {
  const Graph g = topo::make_dring(6, 2, 4).graph;
  Rng rng(2);
  const CsSets sets = make_cs_sets(g, 9, 9, rng);
  std::set<NodeId> cr(sets.client_racks.begin(), sets.client_racks.end());
  for (NodeId r : sets.server_racks) EXPECT_FALSE(cr.count(r));
}

TEST(CsModel, PacksIntoFewestRacks) {
  // 4 servers per rack: 10 clients need exactly 3 racks (ceil(10/4)).
  const Graph g = topo::make_dring(6, 2, 4).graph;
  Rng rng(3);
  const CsSets sets = make_cs_sets(g, 10, 4, rng);
  EXPECT_EQ(sets.client_racks.size(), 3u);
  EXPECT_EQ(sets.server_racks.size(), 1u);
}

TEST(CsModel, IncastCase) {
  // C = 1, S = 1: the incast/outcast corner of the heatmap.
  const Graph g = topo::make_dring(5, 2, 2).graph;
  Rng rng(4);
  const CsSets sets = make_cs_sets(g, 1, 1, rng);
  EXPECT_EQ(sets.clients.size(), 1u);
  EXPECT_EQ(sets.servers.size(), 1u);
  EXPECT_NE(g.tor_of_host(sets.clients[0]), g.tor_of_host(sets.servers[0]));
}

TEST(CsModel, OverflowRejected) {
  const Graph g = topo::make_dring(5, 2, 2).graph;  // 20 hosts
  Rng rng(5);
  EXPECT_THROW(make_cs_sets(g, 15, 10, rng), Error);
}

TEST(CsModel, RandomRackChoiceVariesWithSeed) {
  const Graph g = topo::make_dring(8, 2, 4).graph;
  Rng r1(1), r2(2);
  const auto a = make_cs_sets(g, 4, 4, r1);
  const auto b = make_cs_sets(g, 4, 4, r2);
  EXPECT_TRUE(a.client_racks != b.client_racks ||
              a.server_racks != b.server_racks);
}

TEST(CsRackTm, WeightsProportionalToMembership) {
  const Graph g = topo::make_dring(6, 2, 4).graph;
  Rng rng(6);
  const CsSets sets = make_cs_sets(g, 6, 8, rng);
  const RackTm tm = cs_rack_tm(g, sets);
  // Total weight = |C| x |S|.
  double total = 0;
  for (NodeId a = 0; a < tm.racks(); ++a)
    for (NodeId b = 0; b < tm.racks(); ++b) total += tm.at(a, b);
  EXPECT_DOUBLE_EQ(total, 48.0);
  // Only client->server rack entries are nonzero.
  for (NodeId a = 0; a < g.num_switches(); ++a) {
    for (NodeId b = 0; b < g.num_switches(); ++b) {
      if (tm.at(a, b) > 0) {
        EXPECT_TRUE(std::count(sets.client_racks.begin(),
                               sets.client_racks.end(), a));
        EXPECT_TRUE(std::count(sets.server_racks.begin(),
                               sets.server_racks.end(), b));
      }
    }
  }
}

TEST(CsFlowPairs, FullProductWhenSmall) {
  const Graph g = topo::make_dring(6, 2, 4).graph;
  Rng rng(7);
  const CsSets sets = make_cs_sets(g, 3, 5, rng);
  const auto pairs = cs_flow_pairs(sets, 100, rng);
  EXPECT_EQ(pairs.size(), 15u);
  std::set<std::pair<topo::HostId, topo::HostId>> dedup(pairs.begin(),
                                                        pairs.end());
  EXPECT_EQ(dedup.size(), 15u);
}

TEST(CsFlowPairs, DownsamplesLargeProducts) {
  const Graph g = topo::make_dring(8, 3, 8).graph;  // 192 hosts
  Rng rng(8);
  const CsSets sets = make_cs_sets(g, 40, 40, rng);
  const auto pairs = cs_flow_pairs(sets, 100, rng);
  EXPECT_EQ(pairs.size(), 100u);
  std::set<std::pair<topo::HostId, topo::HostId>> dedup(pairs.begin(),
                                                        pairs.end());
  EXPECT_EQ(dedup.size(), 100u);  // sampling without replacement
  for (const auto& [c, s] : pairs) {
    EXPECT_TRUE(std::count(sets.clients.begin(), sets.clients.end(), c));
    EXPECT_TRUE(std::count(sets.servers.begin(), sets.servers.end(), s));
  }
}

}  // namespace
}  // namespace spineless::workload
