// Test-only references for routing::VrfTable: an independent Dijkstra over
// the VRF graph and the ECMP (K = 1) table validity checker.
#pragma once

#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "routing/vrf.h"
#include "topo/graph.h"

namespace spineless::routing {

// Minimum VRF-graph cost from every (vrf, node) state to (VRF K, dst),
// indexed node * k + vrf - 1: Dijkstra on the reversed virtual edges of
// the gadget over the links not in `dead`, from the goal state. kInfCost
// for states that cannot reach it.
inline std::vector<int> reference_vrf_distances(const Graph& g, int k,
                                                const LinkSet* dead,
                                                NodeId dst) {
  constexpr int kInf = VrfTable::kInfCost;
  const auto ks = static_cast<std::size_t>(k);
  auto index = [&](NodeId node, int vrf) {
    return static_cast<std::size_t>(node) * ks +
           static_cast<std::size_t>(vrf - 1);
  };
  std::vector<int> h(static_cast<std::size_t>(g.num_switches()) * ks, kInf);
  using Entry = std::pair<int, std::size_t>;  // (cost, state)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  h[index(dst, k)] = 0;
  pq.emplace(0, index(dst, k));
  while (!pq.empty()) {
    const auto [cost, state] = pq.top();
    pq.pop();
    if (cost > h[state]) continue;
    const auto v = static_cast<NodeId>(state / ks);
    const int jv = static_cast<int>(state % ks) + 1;
    // Relax predecessors: states (ju, u) with a virtual edge into (jv, v).
    for (const Port& p : g.neighbors(v)) {
      if (dead != nullptr && dead->contains(p.link)) continue;
      auto relax = [&](int ju, int c) {
        const std::size_t s = index(p.neighbor, ju);
        if (cost + c < h[s]) {
          h[s] = cost + c;
          pq.emplace(h[s], s);
        }
      };
      // Incoming edges to (jv, v): rule (1) from (K, u) at cost jv;
      // rule (2) from (jv-1, u) at cost 1 when jv >= 2;
      // rule (3) from (1, u) at cost 1 when jv == 1.
      relax(k, jv);
      if (jv >= 2) relax(jv - 1, 1);
      if (jv == 1 && k > 1) relax(1, 1);
    }
  }
  return h;
}

// Hop distances to dst over the links not in `dead`; -1 when unreachable.
inline std::vector<int> reference_bfs(const Graph& g, NodeId dst,
                                      const LinkSet* dead) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_switches()), -1);
  std::deque<NodeId> queue{dst};
  dist[static_cast<std::size_t>(dst)] = 0;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const Port& p : g.neighbors(u)) {
      if (dead != nullptr && dead->contains(p.link)) continue;
      auto& d = dist[static_cast<std::size_t>(p.neighbor)];
      if (d < 0) {
        d = dist[static_cast<std::size_t>(u)] + 1;
        queue.push_back(p.neighbor);
      }
    }
  }
  return dist;
}

// The ECMP table's sanity check: a K = 1 table whose every next hop
// strictly decreases the distance to the destination (hence forwarding is
// loop-free), where every switch that can still reach dst has at least
// one next hop, and whose distances equal the true BFS distances of the
// surviving topology. `dead` names failed links, so post-failure tables
// validate against the degraded graph.
inline bool ecmp_table_valid(const Graph& g, const VrfTable& table,
                             const LinkSet* dead = nullptr) {
  if (table.num_switches() != g.num_switches() || table.k() != 1)
    return false;
  for (NodeId dst = 0; dst < g.num_switches(); ++dst) {
    const auto bfs = reference_bfs(g, dst, dead);
    for (NodeId u = 0; u < g.num_switches(); ++u) {
      if (u == dst) continue;
      const int du = bfs[static_cast<std::size_t>(u)];
      const auto hops = table.next_hops(u, 1, dst);
      if (du < 0) {
        // Cut off by failures: the empty set is the only valid answer.
        if (table.distance(u, 1, dst) != VrfTable::kInfCost || !hops.empty())
          return false;
        continue;
      }
      if (table.distance(u, 1, dst) != du || hops.empty()) return false;
      for (const VrfHop& h : hops) {
        if (!g.adjacent(u, h.port.neighbor)) return false;
        if (dead != nullptr && dead->contains(h.port.link)) return false;
        if (table.distance(h.port.neighbor, 1, dst) != du - 1) return false;
      }
    }
  }
  return true;
}

}  // namespace spineless::routing
