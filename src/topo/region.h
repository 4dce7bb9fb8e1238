// Region cuts for hybrid packet/fluid co-simulation (core/hybrid_experiment):
// a "hot" set of switches is simulated packet-level; everything else runs in
// the fluid max-min engine. This header owns the purely topological half —
// selecting the hot set, finding the cut links, and building the induced
// packet subgraph with one gateway host per cut link (the attachment point
// for the boundary layer's paced packet sources and sinks).
//
// Everything here is deterministic: hot sets are stored ascending, cut links
// in full-graph link-id order, and the region graph's switch/host numbering
// is a pure function of those orders.
#pragma once

#include <vector>

#include "topo/graph.h"

namespace spineless::topo {

// A link with exactly one endpoint inside the hot set — the seam the
// boundary layer stitches. Ordered by full-graph link id.
struct CutLink {
  LinkId link = kInvalidLink;     // full-graph link id
  NodeId inside = kInvalidNode;   // the hot endpoint
  NodeId outside = kInvalidNode;  // the cold endpoint
};

struct RegionCut {
  std::vector<NodeId> hot;       // ascending full-graph switch ids
  std::vector<char> in_region;   // size g.num_switches(); 1 = hot
  std::vector<CutLink> cut;      // ascending by CutLink::link

  bool contains(NodeId n) const {
    return in_region[static_cast<std::size_t>(n)] != 0;
  }
};

// Hot set given explicitly by switch ids (deduplicated, sorted).
RegionCut region_from_switches(const Graph& g, std::vector<NodeId> hot);

// Hot set = every switch whose supernode (DRing) is in `hot_supernodes`.
RegionCut region_from_supernodes(const Graph& g,
                                 const std::vector<int>& supernode_of,
                                 const std::vector<int>& hot_supernodes);

// Auto selection from a prior fluid pass: score each switch by the maximum
// utilization over its incident directed links (index 2l = a->b, 2l+1 =
// b->a), then grow a *connected* hot set of `k` switches greedily from the
// hottest one, always absorbing the hottest frontier switch (ties broken
// by ascending id). Connectivity is required — the region subgraph builds
// its own routing tables.
RegionCut region_from_utilization(const Graph& g,
                                  const std::vector<double>& directed_util,
                                  int k);

// The packet-level view of a region: the induced subgraph over the hot
// switches plus one *gateway host* per cut link, attached at the cut link's
// inside endpoint. Boundary flows enter/leave the packet region through
// gateway hosts, so the cut link's serialization point is modeled by the
// gateway's host NIC.
struct RegionGraph {
  Graph graph;  // hot switches renumbered 0..hot.size()-1 in hot order

  std::vector<NodeId> to_full;    // region switch -> full switch
  std::vector<NodeId> to_region;  // full switch -> region switch or kInvalid
  // Full host -> region host for hosts on hot switches (-1 for cold hosts);
  // the inverse for real region hosts (-1 for gateway hosts).
  std::vector<HostId> host_to_region;
  std::vector<HostId> region_host_to_full;
  // gateway_host[i] = region host id standing in for RegionCut::cut[i].
  std::vector<HostId> gateway_host;
  // Full link -> region link for region-internal links (both endpoints
  // hot), kInvalidLink otherwise. This is how a full-graph FaultPlan is
  // translated into a sub-plan over the region subgraph.
  std::vector<LinkId> link_to_region;
};

RegionGraph build_region_graph(const Graph& g, const RegionCut& cut);

}  // namespace spineless::topo
