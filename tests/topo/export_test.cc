#include "topo/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "topo/builders.h"

namespace spineless::topo {
namespace {

TEST(DotExport, ContainsAllNodesAndEdges) {
  const Graph g = make_leaf_spine(3, 1);
  const auto dot = to_dot(g);
  for (NodeId n = 0; n < g.num_switches(); ++n) {
    std::string node = "s";
    node += std::to_string(n);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
  std::size_t edges = 0, pos = 0;
  while ((pos = dot.find(" -- ", pos)) != std::string::npos) {
    ++edges;
    pos += 4;
  }
  EXPECT_EQ(edges, static_cast<std::size_t>(g.num_links()));
}

TEST(DotExport, GroupColoringUsesPalette) {
  const DRing d = make_dring(5, 2, 1);
  const auto dot = to_dot(d.graph, &d.supernode_of);
  // Two switches in the same supernode share a fill color; switches in
  // different supernodes of the first two groups don't.
  EXPECT_NE(dot.find("#4e79a7"), std::string::npos);
  EXPECT_NE(dot.find("#f28e2b"), std::string::npos);
}

TEST(DotExport, WellFormedBraces) {
  const auto dot = to_dot(make_rrg(8, 3, 1, 1));
  EXPECT_EQ(dot.front(), 'g');
  EXPECT_EQ(dot[dot.size() - 2], '}');
}

TEST(EdgeList, OneLinePerLinkPlusServerComments) {
  const Graph g = make_leaf_spine(3, 1);  // 4 leaves w/ servers + 1 spine
  const auto txt = to_edge_list(g);
  std::istringstream in(txt);
  std::string line;
  int links = 0, server_lines = 0;
  while (std::getline(in, line)) {
    if (line.rfind("# servers", 0) == 0) {
      ++server_lines;
    } else if (!line.empty() && line[0] != '#') {
      ++links;
    }
  }
  EXPECT_EQ(links, g.num_links());
  EXPECT_EQ(server_lines, 4);
}

TEST(EdgeList, RoundTripsAdjacency) {
  const Graph g = make_rrg(10, 4, 2, 9);
  std::istringstream in(to_edge_list(g));
  Graph rebuilt(g.num_switches());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int a, b;
    ls >> a >> b;
    rebuilt.add_link(static_cast<NodeId>(a), static_cast<NodeId>(b));
  }
  ASSERT_EQ(rebuilt.num_links(), g.num_links());
  for (NodeId a = 0; a < g.num_switches(); ++a)
    for (NodeId b = 0; b < g.num_switches(); ++b)
      EXPECT_EQ(rebuilt.adjacent(a, b), g.adjacent(a, b));
}

}  // namespace
}  // namespace spineless::topo
