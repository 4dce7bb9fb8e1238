// The fluid network model of a topology: ResourceLayout maps host pairs and
// switch paths onto NIC and directed-link resources, and one MaxMinProblem
// over them gives long-running flows their max-min fair rates.
#include "flowsim/resource_layout.h"

#include <gtest/gtest.h>

#include <numeric>

#include "flowsim/maxmin.h"
#include "topo/builders.h"
#include "util/error.h"

namespace spineless::flowsim {
namespace {

using topo::Graph;
using topo::NodeId;

// A 10G problem over g's layout.
MaxMinProblem problem_on(const ResourceLayout& layout) {
  return MaxMinProblem(layout.capacities(10e9, 10e9));
}

// Rates of every flow in `p`, in id order.
std::vector<double> solve_all(MaxMinProblem& p) {
  std::vector<int> ids(static_cast<std::size_t>(p.num_flows()));
  std::iota(ids.begin(), ids.end(), 0);
  return p.solve(ids);
}

TEST(FluidNetwork, SingleFlowGetsLineRate) {
  Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  const ResourceLayout layout(g);
  MaxMinProblem p = problem_on(layout);
  p.add_flow(layout.flow(0, 1, {0, 1}));
  const auto r = solve_all(p);
  EXPECT_NEAR(r[0], 10e9, 1);
}

TEST(FluidNetwork, NicLimitsIncast) {
  // Two senders to one receiver: the receiver's NIC is the bottleneck.
  Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 2);
  g.set_servers(1, 1);
  const ResourceLayout layout(g);
  MaxMinProblem p = problem_on(layout);
  p.add_flow(layout.flow(0, 2, {0, 1}));
  p.add_flow(layout.flow(1, 2, {0, 1}));
  const auto r = solve_all(p);
  EXPECT_NEAR(r[0], 5e9, 1);
  EXPECT_NEAR(r[1], 5e9, 1);
}

TEST(FluidNetwork, IntraRackFlowOnlyUsesNics) {
  Graph g(1);
  g.set_servers(0, 2);
  const ResourceLayout layout(g);
  EXPECT_EQ(layout.flow(0, 1, {0}),
            (std::vector<int>{layout.host_up(0), layout.host_down(1)}));
  MaxMinProblem p = problem_on(layout);
  p.add_flow(layout.flow(0, 1, {0}));
  EXPECT_NEAR(solve_all(p)[0], 10e9, 1);
}

TEST(FluidNetwork, DirectionsAreIndependent) {
  // Opposite-direction flows on one cable don't share capacity.
  Graph g(2);
  g.add_link(0, 1);
  g.set_servers(0, 1);
  g.set_servers(1, 1);
  const ResourceLayout layout(g);
  MaxMinProblem p = problem_on(layout);
  p.add_flow(layout.flow(0, 1, {0, 1}));
  p.add_flow(layout.flow(1, 0, {1, 0}));
  const auto r = solve_all(p);
  EXPECT_NEAR(r[0], 10e9, 1);
  EXPECT_NEAR(r[1], 10e9, 1);
}

TEST(FluidNetwork, LeafSpineOversubscriptionVisible) {
  // leaf-spine(4, 2): 4 servers per leaf, 2 uplinks. All 4 servers of
  // leaf 0 sending to distinct remote leaves share 2 x 10G of uplink.
  const Graph g = topo::make_leaf_spine(4, 2);
  const ResourceLayout layout(g);
  MaxMinProblem p = problem_on(layout);
  const NodeId spine0 = topo::leaf_spine_num_leaves(4, 2);
  for (int i = 0; i < 4; ++i) {
    const topo::HostId src = i;  // hosts 0..3 on leaf 0
    const topo::HostId dst = g.first_host_of(1 + i) + 1;
    p.add_flow(
        layout.flow(src, dst, {0, spine0, static_cast<NodeId>(1 + i)}));
  }
  const auto r = solve_all(p);
  double total = 0;
  for (double v : r) total += v;
  // All four flows hash onto spine 0's uplink: 10G shared.
  EXPECT_NEAR(total, 10e9, 1e3);
}

TEST(FluidNetwork, RejectsPathNotMatchingHosts) {
  const Graph g = topo::make_leaf_spine(3, 1);
  const ResourceLayout layout(g);
  // Host 0 is on leaf 0; a path starting at leaf 1 must throw.
  EXPECT_THROW(layout.flow(0, 4, {1, 3, 2}), Error);
}

TEST(FluidNetwork, RejectsNonAdjacentHop) {
  const Graph g = topo::make_leaf_spine(3, 1);
  const ResourceLayout layout(g);
  // Leaves 0 and 1 are not directly connected.
  EXPECT_THROW(layout.flow(0, 3, {0, 1}), Error);
}

}  // namespace
}  // namespace spineless::flowsim
