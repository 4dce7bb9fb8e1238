// Test-only path checks: path-set validity, the projection of a VRF
// table's minimum-cost virtual paths onto physical paths, and the
// all-pairs hop-distance matrix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <set>
#include <vector>

#include "routing/paths.h"
#include "routing/vrf.h"
#include "topo/analysis.h"
#include "topo/graph.h"
#include "util/error.h"

namespace spineless::topo {

// Full all-pairs hop-distance matrix (row per source).
inline std::vector<std::vector<int>> all_pairs_distances(const Graph& g) {
  std::vector<std::vector<int>> dist;
  dist.reserve(static_cast<std::size_t>(g.num_switches()));
  for (NodeId n = 0; n < g.num_switches(); ++n)
    dist.push_back(bfs_distances(g, n));
  return dist;
}

}  // namespace spineless::topo

namespace spineless::routing {

// True if every path starts at src, ends at dst, is simple, and uses only
// existing links.
inline bool paths_valid(const Graph& g, NodeId src, NodeId dst,
                        const PathSet& paths) {
  for (const Path& p : paths) {
    if (p.size() < 2 || p.front() != src || p.back() != dst) return false;
    std::set<NodeId> seen(p.begin(), p.end());
    if (seen.size() != p.size()) return false;  // not simple
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      if (!g.adjacent(p[i], p[i + 1])) return false;
    }
  }
  return true;
}

// All physical paths realizable as minimum-cost VRF-graph paths from
// (VRF K, src) to (VRF K, dst) over the table's next hops, deduplicated
// and sorted by length, then lexicographically — for equivalence testing
// against shortest_union_paths().
inline PathSet project_paths(const VrfTable& table, NodeId src, NodeId dst,
                             std::size_t cap = 4096) {
  SPINELESS_CHECK(src != dst);
  std::set<Path> dedup;
  // DFS over tight virtual edges; costs are >= 1 so the tight-edge graph is
  // a DAG and the walk terminates.
  Path prefix{src};
  auto walk = [&](auto&& self, NodeId node, int vrf) -> void {
    if (dedup.size() >= cap) return;
    if (node == dst && vrf == table.k()) {
      dedup.insert(prefix);
      return;
    }
    for (const VrfHop& hop : table.next_hops(node, vrf, dst)) {
      // BGP loop prevention: every router is its own AS, so a route whose
      // AS-path revisits a router is never admitted. Enumerate only simple
      // physical paths (matters for K >= 3).
      if (std::find(prefix.begin(), prefix.end(), hop.port.neighbor) !=
          prefix.end())
        continue;
      prefix.push_back(hop.port.neighbor);
      self(self, hop.port.neighbor, hop.next_vrf);
      prefix.pop_back();
    }
  };
  walk(walk, src, table.k());
  PathSet out(dedup.begin(), dedup.end());
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return out;
}

}  // namespace spineless::routing
