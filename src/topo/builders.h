// Topology builders for the paper's three families (§3, §5.1):
//
//  * leaf-spine(x, y)        — the incumbent 2-tier Clos baseline,
//  * DRing(m, n)             — the paper's flat ring-of-supernodes topology,
//  * RRG / Jellyfish         — regular random graph, the flat expander,
//
// plus the flat transform F(T) of a leaf-spine (same equipment, servers
// spread over all switches, random graph on the leftover ports — §3.1), and
// an Xpander-style lift construction as an extension.
//
// All builders produce deterministic node layouts so experiments are
// reproducible; random builders take an explicit seed.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"

namespace spineless::topo {

// ---------------------------------------------------------------------------
// Leaf-spine(x, y) per §3.1: y spines, (x+y) leaves, every leaf connected to
// every spine, x servers per leaf. Switch degree is x+y everywhere.
// Node layout: leaves are 0 .. x+y-1, spines are x+y .. x+2y-1.
// ---------------------------------------------------------------------------
Graph make_leaf_spine(int x, int y);

inline NodeId leaf_spine_num_leaves(int x, int y) {
  return static_cast<NodeId>(x + y);
}
inline NodeId leaf_spine_num_spines(int /*x*/, int y) {
  return static_cast<NodeId>(y);
}

// ---------------------------------------------------------------------------
// DRing (§3.2): a ring supergraph of m supernodes where supernode i connects
// to supernodes i+1 and i+2 (mod m); every ToR pair lying in adjacent
// supernodes gets a direct link. All switches are ToRs with servers.
// ---------------------------------------------------------------------------
struct DRing {
  Graph graph;
  int supernodes = 0;
  // supernode_of[switch] in [0, supernodes).
  std::vector<int> supernode_of;
  // Supernode ids in ring order. The builders produce the identity order;
  // incremental expansion (topo/expand.h) inserts new supernodes here, so
  // ring position and supernode id may diverge on expanded DRings.
  std::vector<int> ring_order;
};

// Homogeneous DRing: m supernodes of n ToRs each, servers_per_tor servers on
// every ToR. Network degree of every ToR is 4n for m >= 5 (fewer for tiny m
// where the +1/+2 supernode neighbourhoods overlap).
// ports_per_switch == 0 disables the port-budget check.
DRing make_dring(int m, int n, int servers_per_tor, int ports_per_switch = 0);

// Equipment-matched DRing, mirroring the paper's §5.1 configuration (e.g. 80
// switches in 12 supernodes): distributes `num_switches` ToRs over `m`
// supernodes as evenly as possible, links adjacent-supernode ToR pairs, then
// spreads `total_servers` servers as evenly as the per-switch port budget
// allows. Throws if the equipment cannot host that many servers.
// total_servers == -1 fills every leftover port with a server — with the
// paper's 80-switch / 64-port / 12-supernode config this reproduces the
// paper's 2988-server DRing exactly.
DRing make_dring_equipment(int num_switches, int ports_per_switch,
                           int total_servers, int m);

// ---------------------------------------------------------------------------
// Regular random graph (Jellyfish-style). Every switch has `net_degree`
// network ports, wired by randomized stub matching with swap-based repair,
// and `servers_per_switch` servers. Retries internally until connected.
// ---------------------------------------------------------------------------
Graph make_rrg(int num_switches, int net_degree, int servers_per_switch,
               std::uint64_t seed);

// RRG with an arbitrary degree sequence (used by the flat transform, where
// even server spreading leaves switches with degrees differing by one).
// servers[i] servers and net_degrees[i] network ports at switch i.
Graph make_rrg_with_degrees(const std::vector<int>& net_degrees,
                            const std::vector<int>& servers,
                            std::uint64_t seed);

// ---------------------------------------------------------------------------
// Flat transform F(T) for T = leaf-spine(x, y) per §3.1: same x+2y switches
// of degree x+y, same x(x+y) servers, spread evenly (±1) over all switches;
// remaining ports carry a random graph.
// ---------------------------------------------------------------------------
Graph flatten_leaf_spine(int x, int y, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Xpander-style topology (extension; Valadarsky et al.): a random `lift`-lift
// of the complete graph K_{net_degree+1}. num_switches = (net_degree+1)*lift.
// ---------------------------------------------------------------------------
Graph make_xpander(int net_degree, int lift, int servers_per_switch,
                   std::uint64_t seed);

// ---------------------------------------------------------------------------
// Dragonfly (extension; §7 "other static networks", Kim et al.): `groups`
// groups of `a` switches; complete graph within each group; each switch has
// `h` global ports; global links distributed evenly over the other groups
// (floor(a*h/(groups-1)) links per group pair; leftover global ports stay
// unused). Switch id = group * a + index. Network degree = (a-1) + used
// global ports; diameter <= 3 when every group pair gets a link.
// ---------------------------------------------------------------------------
Graph make_dragonfly(int groups, int a, int h, int servers_per_switch);

}  // namespace spineless::topo
