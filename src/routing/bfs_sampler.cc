#include "routing/bfs_sampler.h"

#include <algorithm>
#include <tuple>

#include "routing/vrf.h"
#include "util/rng.h"

namespace spineless::routing {

Path BfsSampler::sample(NodeId src, NodeId dst, Rng& rng) {
  if (dead_.empty() && excluded_.empty())
    return walk<false>(src, dst, dist_to<false>(dst), rng);
  return walk<true>(src, dst, dist_to<true>(dst), rng);
}

int BfsSampler::distance(NodeId node, int vrf, NodeId dst) {
  SPINELESS_CHECK(vrf >= 1 && vrf <= k_);
  // The filtered BFS row equals the unfiltered one when nothing is dead.
  return vrf_distance(dist_to<true>(dst), dst, node, vrf);
}

void BfsSampler::set_link_dead(LinkId link, bool dead) {
  if (dead) {
    dead_.insert(link);
  } else {
    dead_.erase(link);
  }
  cache_.clear();
}

// Excluded switches get a distance when first reached but are never
// expanded, so a distance through them is never propagated while an
// excluded source still learns its own distance.
template <bool kFiltered>
const std::vector<std::int32_t>& BfsSampler::dist_to(NodeId dst) {
  for (const auto& e : cache_) {
    if (e.first == dst) return e.second;
  }
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g_.num_switches()),
                                 -1);
  std::vector<NodeId> frontier{dst};
  dist[static_cast<std::size_t>(dst)] = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    next.clear();
    for (NodeId n : frontier) {
      const std::int32_t d = dist[static_cast<std::size_t>(n)];
      for (const Port& p : g_.neighbors(n)) {
        if (kFiltered && dead_.contains(p.link)) continue;
        auto& dn = dist[static_cast<std::size_t>(p.neighbor)];
        if (dn < 0) {
          dn = d + 1;
          if (kFiltered && !excluded_.empty() && masked(p.neighbor)) continue;
          next.push_back(p.neighbor);
        }
      }
    }
    frontier.swap(next);
  }
  if (cache_.size() >= kMaxCached) cache_.erase(cache_.begin());
  cache_.emplace_back(dst, std::move(dist));
  return cache_.back().second;
}

// h(j, n) from d = d(n), with the closed forms of doc/architecture.md
// ("Path sampling"). A state nearer dst must climb K - j hops to VRF K: it
// costs that many when a walk of that length reaches dst, else one hop
// more for j = 1 (which may stay in VRF 1) or a VRF-K detour for j > 1.
int BfsSampler::vrf_distance(const std::vector<std::int32_t>& dist,
                             NodeId dst, NodeId n, int j) const {
  const int d = dist[static_cast<std::size_t>(n)];
  const int k = k_;
  if (d < 0) return VrfTable::kInfCost;
  if (j == k) return n == dst ? 0 : std::max(d, k);
  const int climb = k - j;
  if (j == 1 && d >= climb) return d;
  if (j > 1 && d > climb) return std::max(d, k + climb);
  if (walk_exists(dist, n, climb)) return climb;
  // Only an isolated dst has no walk of climb + 1 hops either.
  if (!walk_exists(dist, n, climb + 1)) return VrfTable::kInfCost;
  return j == 1 ? climb + 1 : k + climb;
}

// True when a walk of exactly `len` live hops leads from n to dst. A
// shortest path plus back-and-forth hops on its last link gives every
// len >= d of d's parity; the other parity needs an odd cycle.
bool BfsSampler::walk_exists(const std::vector<std::int32_t>& dist, NodeId n,
                             int len) const {
  const int d = dist[static_cast<std::size_t>(n)];
  if (d < 0 || d > len) return false;
  if (len == 0) return true;  // d == 0: n is dst
  if (d > 0 && (len - d) % 2 == 0) return true;
  for (const Port& p : g_.neighbors(n)) {
    if (!dead_.contains(p.link) && walk_exists(dist, p.neighbor, len - 1))
      return true;
  }
  return false;
}

// Candidates in VrfTable::compute_destination's next-hop order: live ports
// in port order, then each port's virtual edges in for_each_virtual_edge
// order, keeping every tight one (a port tight under two edges is listed
// twice). Like the table walk, the path ends at the first visit to dst.
template <bool kFiltered>
Path BfsSampler::walk(NodeId src, NodeId dst,
                      const std::vector<std::int32_t>& dist, Rng& rng) {
  if (dist[static_cast<std::size_t>(src)] < 0) return {};
  Path path{src};
  NodeId cur = src;
  int vrf = k_;
  while (cur != dst) {
    const int d = dist[static_cast<std::size_t>(cur)];
    // Every edge costs >= 1 and h(next) >= d(next) >= d - 1, so when
    // h == d only neighbors one hop closer can be tight. At d >= 2K the
    // closed forms also fix their edges: VRF K drops to VRF 1 (rule 1,
    // i = 1), VRF j < K climbs to j + 1 (rule 2), and VRF 1 also stays
    // (rule 3), listed after the climb.
    const bool far = d >= 2 * k_;
    const int h = far ? d : vrf_distance(dist, dst, cur, vrf);
    scratch_.clear();
    for (const Port& p : g_.neighbors(cur)) {
      if ((h == d && dist[static_cast<std::size_t>(p.neighbor)] != d - 1) ||
          (kFiltered &&
           (dead_.contains(p.link) ||
            (p.neighbor != dst && !excluded_.empty() && masked(p.neighbor)))))
        continue;
      if (far) {
        scratch_.emplace_back(p.neighbor, vrf == k_ ? 1 : vrf + 1);
        if (vrf == 1 && k_ > 1) scratch_.emplace_back(p.neighbor, 1);
        continue;
      }
      for_each_virtual_edge(vrf, k_, [&](int next_vrf, int cost) {
        if (cost + vrf_distance(dist, dst, p.neighbor, next_vrf) == h)
          scratch_.emplace_back(p.neighbor, next_vrf);
      });
    }
    std::tie(cur, vrf) = scratch_[rng.uniform(scratch_.size())];
    path.push_back(cur);
  }
  return path;
}

}  // namespace spineless::routing
