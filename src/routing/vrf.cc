#include "routing/vrf.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>

#include "topo/analysis.h"
#include "util/runner.h"

namespace spineless::routing {
constexpr int kInf = VrfTable::kInfCost;

void VrfTable::compute_destination(const Graph& g, const LinkSet* dead,
                                   NodeId dst) {
  const bool filtering = dead != nullptr && !dead->empty();
  auto link_dead = [&](LinkId l) { return filtering && dead->contains(l); };
  const int k = k_;
  const std::size_t states =
      static_cast<std::size_t>(num_switches_) * static_cast<std::size_t>(k);
  auto& h = dist_[static_cast<std::size_t>(dst)];
  h.assign(states, kInf);
  // Dijkstra on reversed virtual edges from the goal state (VRF K, dst).
  using Entry = std::pair<int, std::size_t>;  // (cost, state)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  const std::size_t goal = index(dst, k);
  h[goal] = 0;
  pq.emplace(0, goal);
  while (!pq.empty()) {
    const auto [cost, state] = pq.top();
    pq.pop();
    if (cost > h[state]) continue;
    const auto v = static_cast<NodeId>(state / static_cast<std::size_t>(k));
    const int jv = static_cast<int>(state % static_cast<std::size_t>(k)) + 1;
    // Relax predecessors: states (ju, u) with a virtual edge into (jv, v).
    for (const Port& p : g.neighbors(v)) {
      if (link_dead(p.link)) continue;
      const NodeId u = p.neighbor;
      auto relax = [&](int ju, int c) {
        const std::size_t s = index(u, ju);
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

  // Tight forward edges become the multipath next-hop sets.
  auto& nh = nh_[static_cast<std::size_t>(dst)];
  nh.assign(states, {});
  // Count minimum-cost continuations per state (DP over the tight-edge
  // DAG in ascending cost-to-go order; saturate to avoid overflow).
  constexpr std::int64_t kWaysCap = 1'000'000;
  std::vector<std::int64_t> ways(states, 0);
  ways[goal] = 1;
  std::vector<std::size_t> order;
  order.reserve(states);
  for (std::size_t s = 0; s < states; ++s)
    if (h[s] < kInf) order.push_back(s);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return h[a] < h[b]; });
  for (const std::size_t s : order) {
    const auto u = static_cast<NodeId>(s / static_cast<std::size_t>(k));
    const int ju = static_cast<int>(s % static_cast<std::size_t>(k)) + 1;
    if (h[s] >= kInf || (u == dst && ju == k)) continue;
    for (const Port& p : g.neighbors(u)) {
      if (link_dead(p.link)) continue;
      for_each_virtual_edge(ju, k, [&](int jv, int c) {
        const std::size_t sv = index(p.neighbor, jv);
        if (h[sv] < kInf && c + h[sv] == h[s]) {
          ways[s] = std::min(kWaysCap, ways[s] + ways[sv]);
          nh[s].push_back(VrfHop{p, jv, c, std::max<std::int64_t>(
                                               1, ways[sv])});
        }
      });
    }
  }
}

VrfTable VrfTable::compute(const Graph& g, int k, const LinkSet* dead,
                           util::Runner* runner) {
  SPINELESS_CHECK(k >= 1);
  VrfTable t;
  t.k_ = k;
  t.num_switches_ = g.num_switches();
  t.dist_.resize(static_cast<std::size_t>(g.num_switches()));
  t.nh_.resize(static_cast<std::size_t>(g.num_switches()));

  // Each destination's Dijkstra + tight-edge DP reads only the graph and
  // writes only its own dist_[dst] / nh_[dst] slots, so destinations fan
  // over the pool with byte-identical results.
  const auto n = static_cast<std::size_t>(g.num_switches());
  auto compute_dst = [&](std::size_t d) {
    t.compute_destination(g, dead, static_cast<NodeId>(d));
  };
  if (runner != nullptr && runner->jobs() > 1 && n > 1) {
    runner->run_batch(n, compute_dst);
  } else {
    for (std::size_t d = 0; d < n; ++d) compute_dst(d);
  }
  return t;
}

void VrfTable::recompute_destinations(const Graph& g, const LinkSet* dead,
                                      const std::vector<NodeId>& dsts,
                                      util::Runner* runner) {
  if (dsts.empty()) return;
  auto compute_dst = [&](std::size_t i) { compute_destination(g, dead, dsts[i]); };
  if (runner != nullptr && runner->jobs() > 1 && dsts.size() > 1) {
    runner->run_batch(dsts.size(), compute_dst);
  } else {
    for (std::size_t i = 0; i < dsts.size(); ++i) compute_dst(i);
  }
}

std::vector<NodeId> VrfTable::destinations_affected_by(const Graph& g,
                                                       topo::LinkId link,
                                                       bool now_dead) const {
  const NodeId a = g.link(link).a;
  const NodeId b = g.link(link).b;
  std::vector<NodeId> out;
  for (NodeId d = 0; d < num_switches_; ++d) {
    bool hit = false;
    if (now_dead) {
      // Removal: some installed next hop toward d crosses the link.
      for (const NodeId u : {a, b}) {
        for (int j = 1; j <= k_ && !hit; ++j)
          for (const VrfHop& hop : next_hops(u, j, d))
            if (hop.port.link == link) {
              hit = true;
              break;
            }
        if (hit) break;
      }
    } else {
      // Restore: a gadget edge (ju, u) -> (jv, v) over the link would be
      // tight or improving under the current distances. Check both
      // physical directions.
      const auto& dist = dist_[static_cast<std::size_t>(d)];
      auto direction_matters = [&](NodeId u, NodeId v) {
        for (int ju = 1; ju <= k_ && !hit; ++ju) {
          const int du = dist[index(u, ju)];
          for_each_virtual_edge(ju, k_, [&](int jv, int c) {
            const int dv = dist[index(v, jv)];
            if (dv < kInf && c + dv <= du) hit = true;
          });
        }
      };
      direction_matters(a, b);
      if (!hit) direction_matters(b, a);
    }
    if (hit) out.push_back(d);
  }
  return out;
}

std::vector<NodeId> VrfTable::splice_link_change(const Graph& g,
                                                 LinkSet& dead,
                                                 topo::LinkId link,
                                                 bool now_dead,
                                                 util::Runner* runner) {
  std::vector<NodeId> dsts = destinations_affected_by(g, link, now_dead);
  if (now_dead) {
    dead.insert(link);
  } else {
    dead.erase(link);
  }
  recompute_destinations(g, &dead, dsts, runner);
  return dsts;
}

bool VrfTable::theorem1_holds(const Graph& g, NodeId src, NodeId dst) const {
  if (src == dst) return true;
  const auto dist = topo::bfs_distances(g, src);
  const int l = dist[static_cast<std::size_t>(dst)];
  if (l < 0) return false;
  return source_distance(src, dst) == std::max(l, k_);
}

PathSet VrfTable::project_paths(NodeId src, NodeId dst, std::size_t cap) const {
  SPINELESS_CHECK(src != dst);
  std::set<Path> dedup;
  // DFS over tight virtual edges; costs are >= 1 so the tight-edge graph is
  // a DAG and the walk terminates.
  struct Frame {
    NodeId node;
    int vrf;
  };
  Path prefix{src};
  std::vector<Frame> stack;
  // Recursive lambda via explicit recursion.
  auto walk = [&](auto&& self, NodeId node, int vrf) -> void {
    if (dedup.size() >= cap) return;
    if (node == dst && vrf == k_) {
      dedup.insert(prefix);
      return;
    }
    for (const VrfHop& hop : next_hops(node, vrf, dst)) {
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
  walk(walk, src, k_);
  PathSet out(dedup.begin(), dedup.end());
  std::sort(out.begin(), out.end(), [](const Path& a, const Path& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  });
  return out;
}

}  // namespace spineless::routing
