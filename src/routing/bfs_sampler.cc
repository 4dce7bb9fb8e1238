#include "routing/bfs_sampler.h"

#include <algorithm>
#include <tuple>

#include "routing/vrf.h"
#include "util/rng.h"

namespace spineless::routing {

Path BfsSampler::sample(NodeId src, NodeId dst, Rng& rng) {
  // The walk draws nothing, so the row need not exist.
  if (src == dst) return {src};
  Row& row = row_for(dst);
  if (dead_.empty() && excluded_.empty()) {
    grow<false>(row, src);
    return walk<false>(src, dst, row.dist, rng);
  }
  grow<true>(row, src);
  return walk<true>(src, dst, row.dist, rng);
}

int BfsSampler::distance(NodeId node, int vrf, NodeId dst) {
  SPINELESS_CHECK(vrf >= 1 && vrf <= k_);
  // The filtered BFS row equals the unfiltered one when nothing is dead.
  Row& row = row_for(dst);
  grow<true>(row, kWholeRow);
  return vrf_distance(g_, dead_, row.dist, k_, dst, node, vrf);
}

void BfsSampler::set_link_dead(LinkId link, bool dead) {
  if (dead) {
    dead_.insert(link);
  } else {
    dead_.erase(link);
  }
  rows_.clear();
  oldest_ = 0;
}

// A miss takes a fresh row while the cache has room, then the oldest
// row's buffer, so a miss allocates nothing once the cache is full.
BfsSampler::Row& BfsSampler::row_for(NodeId dst) {
  for (Row& row : rows_) {
    if (row.dst == dst) return row;
  }
  ++counters_.rows_built;
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

// True when the walk from src reads `row` exactly as it would read the
// complete row: src is labelled (so depth >= d(src)) and depth >= K - 1.
// The walk's states all have h <= h(K, src) <= depth + 1 and an
// unlabelled neighbour's edge costs at least depth + 2, so it is never
// tight; vrf_distance's nested walk reads need len <= K - 1 <= depth
// (doc/architecture.md, "Path sampling").
bool BfsSampler::covers(const Row& row, NodeId src) const {
  if (row.complete) return true;
  return src != kWholeRow && row.dist[static_cast<std::size_t>(src)] >= 0 &&
         row.depth >= k_ - 1;
}

// Labels one level per round until the row covers src. Excluded switches
// get a distance when first reached but are never expanded, so a
// distance through them is never propagated while an excluded source
// still learns its own distance. A resumed row rebuilds its frontier by
// scanning for the unexcluded nodes at `depth`: one O(V) pass, where the
// BFS is O(E), and no frontier array kept per cached row. The scan never
// meets dst, which is exempt from the mask, because a row only stops
// short of completion at depth >= d(src) >= 1.
template <bool kFiltered>
void BfsSampler::grow(Row& row, NodeId src) {
  if (covers(row, src)) return;
  frontier_.clear();
  if (row.depth == 0) {
    frontier_.push_back(row.dst);
  } else {
    ++counters_.rows_resumed;
    for (NodeId n = 0; n < g_.num_switches(); ++n) {
      if (row.dist[static_cast<std::size_t>(n)] == row.depth &&
          !(kFiltered && !excluded_.empty() && masked(n)))
        frontier_.push_back(n);
    }
  }
  do {
    next_.clear();
    for (NodeId n : frontier_) {
      const auto& ports = g_.neighbors(n);
      counters_.edge_visits += ports.size();
      for (const Port& p : ports) {
        if (kFiltered && dead_.contains(p.link)) continue;
        auto& dn = row.dist[static_cast<std::size_t>(p.neighbor)];
        if (dn < 0) {
          dn = row.depth + 1;
          if (kFiltered && !excluded_.empty() && masked(p.neighbor)) continue;
          next_.push_back(p.neighbor);
        }
      }
    }
    ++row.depth;
    row.complete = next_.empty();
    frontier_.swap(next_);
  } while (!covers(row, src));
}

// Candidates in VrfTable's next-hop order: live ports in port order, then
// each port's virtual edges in for_each_virtual_edge order, keeping every
// tight one (a port tight under two edges is listed twice). Like the table
// walk, the path ends at the first visit to dst.
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
    const int h = far ? d : vrf_distance(g_, dead_, dist, k_, dst, cur, vrf);
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
        if (cost + vrf_distance(g_, dead_, dist, k_, dst, p.neighbor,
                                next_vrf) == h)
          scratch_.emplace_back(p.neighbor, next_vrf);
      });
    }
    std::tie(cur, vrf) = scratch_[rng.uniform(scratch_.size())];
    path.push_back(cur);
  }
  return path;
}

}  // namespace spineless::routing
