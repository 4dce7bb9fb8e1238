// Test-only references for routing::VrfTable and routing::BfsSampler: an
// independent Dijkstra over the VRF graph, the ECMP (K = 1) table validity
// checker, and the one-sided lazy-row path sampler that BfsSampler's
// meet-in-the-middle growth must draw exactly like.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "routing/vrf.h"
#include "topo/graph.h"
#include "util/rng.h"

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

// The one-sided sampler: per destination one cached BFS row, grown a
// level at a time until src is labelled and depth >= K - 1, then the
// hop-by-hop VRF walk over that row alone (the far rule at d >= 2K, the
// closed forms below it). Same constructor and sample() contract as
// BfsSampler, whose draws must equal these.
class ReferenceRowSampler {
 public:
  explicit ReferenceRowSampler(const Graph& g, int k = 1,
                               std::span<const char> excluded = {})
      : g_(g), k_(k), excluded_(excluded) {}

  Path sample(NodeId src, NodeId dst, Rng& rng) {
    if (src == dst) return {src};
    Row& row = row_for(dst);
    grow(row, src);
    return walk(src, dst, row.dist, rng);
  }

  void set_link_dead(LinkId link, bool dead) {
    if (dead) {
      dead_.insert(link);
    } else {
      dead_.erase(link);
    }
    rows_.clear();
    oldest_ = 0;
  }

 private:
  static constexpr std::size_t kMaxCached = 64;
  struct Row {
    NodeId dst = 0;
    std::int32_t depth = 0;
    bool complete = false;
    std::vector<std::int32_t> dist;
  };

  bool masked(NodeId n) const {
    return !excluded_.empty() && excluded_[static_cast<std::size_t>(n)] != 0;
  }

  Row& row_for(NodeId dst) {
    for (Row& row : rows_) {
      if (row.dst == dst) return row;
    }
    Row* row = nullptr;
    if (rows_.size() < kMaxCached) {
      row = &rows_.emplace_back();
      row->dist.assign(static_cast<std::size_t>(g_.num_switches()), -1);
    } else {
      row = &rows_[oldest_];
      oldest_ = (oldest_ + 1) % kMaxCached;
      std::fill(row->dist.begin(), row->dist.end(), -1);
    }
    row->dst = dst;
    row->depth = 0;
    row->complete = false;
    row->dist[static_cast<std::size_t>(dst)] = 0;
    return *row;
  }

  bool covers(const Row& row, NodeId src) const {
    return row.complete || (row.dist[static_cast<std::size_t>(src)] >= 0 &&
                            row.depth >= k_ - 1);
  }

  void grow(Row& row, NodeId src) {
    if (covers(row, src)) return;
    std::vector<NodeId> frontier, next;
    if (row.depth == 0) {
      frontier.push_back(row.dst);
    } else {
      for (NodeId n = 0; n < g_.num_switches(); ++n) {
        if (row.dist[static_cast<std::size_t>(n)] == row.depth && !masked(n))
          frontier.push_back(n);
      }
    }
    do {
      next.clear();
      for (NodeId n : frontier) {
        for (const Port& p : g_.neighbors(n)) {
          if (dead_.contains(p.link)) continue;
          auto& dn = row.dist[static_cast<std::size_t>(p.neighbor)];
          if (dn < 0) {
            dn = row.depth + 1;
            if (!masked(p.neighbor)) next.push_back(p.neighbor);
          }
        }
      }
      ++row.depth;
      row.complete = next.empty();
      frontier.swap(next);
    } while (!covers(row, src));
  }

  Path walk(NodeId src, NodeId dst, const std::vector<std::int32_t>& dist,
            Rng& rng) const {
    if (dist[static_cast<std::size_t>(src)] < 0) return {};
    Path path{src};
    NodeId cur = src;
    int vrf = k_;
    std::vector<std::pair<NodeId, int>> cand;
    while (cur != dst) {
      const int d = dist[static_cast<std::size_t>(cur)];
      const bool far = d >= 2 * k_;
      const int h = far ? d : vrf_distance(g_, dead_, dist, k_, dst, cur, vrf);
      cand.clear();
      for (const Port& p : g_.neighbors(cur)) {
        if ((h == d && dist[static_cast<std::size_t>(p.neighbor)] != d - 1) ||
            dead_.contains(p.link) || (p.neighbor != dst && masked(p.neighbor)))
          continue;
        if (far) {
          cand.emplace_back(p.neighbor, vrf == k_ ? 1 : vrf + 1);
          if (vrf == 1 && k_ > 1) cand.emplace_back(p.neighbor, 1);
          continue;
        }
        for_each_virtual_edge(vrf, k_, [&](int next_vrf, int cost) {
          if (cost + vrf_distance(g_, dead_, dist, k_, dst, p.neighbor,
                                  next_vrf) == h)
            cand.emplace_back(p.neighbor, next_vrf);
        });
      }
      std::tie(cur, vrf) = cand[rng.uniform(cand.size())];
      path.push_back(cur);
    }
    return path;
  }

  const Graph& g_;
  int k_;
  std::span<const char> excluded_;
  LinkSet dead_;
  std::vector<Row> rows_;
  std::size_t oldest_ = 0;
};

}  // namespace spineless::routing
