#include "routing/paths.h"

#include <algorithm>
#include <set>

#include "topo/analysis.h"

namespace spineless::routing {
namespace {

// DFS over the BFS DAG toward dst collecting complete shortest paths.
void walk_shortest(const Graph& g, NodeId u, NodeId dst,
                   const std::vector<int>& dist_to_dst, Path& prefix,
                   PathSet& out, std::size_t cap) {
  if (out.size() >= cap) return;
  if (u == dst) {
    out.push_back(prefix);
    return;
  }
  for (const Port& p : g.neighbors(u)) {
    if (dist_to_dst[static_cast<std::size_t>(p.neighbor)] ==
        dist_to_dst[static_cast<std::size_t>(u)] - 1) {
      prefix.push_back(p.neighbor);
      walk_shortest(g, p.neighbor, dst, dist_to_dst, prefix, out, cap);
      prefix.pop_back();
    }
  }
}

void walk_bounded(const Graph& g, NodeId u, NodeId dst, int budget,
                  std::vector<char>& on_path, Path& prefix, PathSet& out,
                  std::size_t cap) {
  if (out.size() >= cap) return;
  if (u == dst) {
    out.push_back(prefix);
    return;
  }
  if (budget == 0) return;
  for (const Port& p : g.neighbors(u)) {
    if (on_path[static_cast<std::size_t>(p.neighbor)]) continue;
    on_path[static_cast<std::size_t>(p.neighbor)] = 1;
    prefix.push_back(p.neighbor);
    walk_bounded(g, p.neighbor, dst, budget - 1, on_path, prefix, out, cap);
    prefix.pop_back();
    on_path[static_cast<std::size_t>(p.neighbor)] = 0;
  }
}

}  // namespace

PathSet enumerate_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                 std::size_t cap) {
  SPINELESS_CHECK(src != dst);
  const auto dist = topo::bfs_distances(g, dst);
  SPINELESS_CHECK(dist[static_cast<std::size_t>(src)] >= 0);
  PathSet out;
  Path prefix{src};
  walk_shortest(g, src, dst, dist, prefix, out, cap);
  return out;
}

PathSet enumerate_bounded_paths(const Graph& g, NodeId src, NodeId dst,
                                int max_len, std::size_t cap) {
  SPINELESS_CHECK(src != dst);
  PathSet out;
  Path prefix{src};
  std::vector<char> on_path(static_cast<std::size_t>(g.num_switches()), 0);
  on_path[static_cast<std::size_t>(src)] = 1;
  walk_bounded(g, src, dst, max_len, on_path, prefix, out, cap);
  return out;
}

PathSet shortest_union_paths(const Graph& g, NodeId src, NodeId dst, int k,
                             std::size_t cap) {
  PathSet bounded = enumerate_bounded_paths(g, src, dst, k, cap);
  PathSet shortest = enumerate_shortest_paths(g, src, dst, cap);
  std::set<Path> dedup(bounded.begin(), bounded.end());
  for (auto& p : shortest) dedup.insert(std::move(p));
  PathSet out(dedup.begin(), dedup.end());
  // Deterministic order: by length, then lexicographic (std::set on Path
  // already gives lexicographic; re-sort with length as primary key).
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  if (out.size() > cap) out.resize(cap);
  return out;
}

int greedy_disjoint_count(const PathSet& paths) {
  PathSet sorted = paths;
  std::sort(sorted.begin(), sorted.end(),
            [](const Path& a, const Path& b) { return a.size() < b.size(); });
  std::set<NodeId> used;  // interior nodes of selected paths
  int count = 0;
  for (const Path& p : sorted) {
    bool ok = true;
    for (std::size_t i = 1; i + 1 < p.size(); ++i) {
      if (used.count(p[i])) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    for (std::size_t i = 1; i + 1 < p.size(); ++i) used.insert(p[i]);
    ++count;
  }
  return count;
}

}  // namespace spineless::routing
