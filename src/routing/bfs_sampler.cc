#include "routing/bfs_sampler.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "routing/vrf.h"
#include "util/rng.h"

namespace spineless::routing {

Path BfsSampler::sample(NodeId src, NodeId dst, Rng& rng) {
  // The walk draws nothing, so the row need not exist.
  if (src == dst) return {src};
  Row& row = row_for(dst);
  if (dead_.empty() && excluded_.empty()) {
    const int len = meet<false>(row, src);
    return walk<false>(src, dst, row, len, rng);
  }
  const int len = meet<true>(row, src);
  return walk<true>(src, dst, row, len, rng);
}

int BfsSampler::distance(NodeId node, int vrf, NodeId dst) {
  SPINELESS_CHECK(vrf >= 1 && vrf <= k_);
  // The filtered BFS row equals the unfiltered one when nothing is dead.
  Row& row = row_for(dst);
  if (!row.complete) {
    if (row.depth > 0) ++counters_.rows_resumed;
    load_frontier(row);
    while (!row.complete) grow_row<true>(row, false);
  }
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
// row's buffer, so a miss allocates nothing once the cache is full. A
// listed row is cleared node by node, in time proportional to its labels.
BfsSampler::Row& BfsSampler::row_for(NodeId dst) {
  for (Row& row : rows_) {
    if (row.dst == dst) return row;
  }
  ++counters_.rows_built;
  Row* row = nullptr;
  if (rows_.size() < kMaxCached) {
    row = &rows_.emplace_back();
    row->dist.assign(static_cast<std::size_t>(g_.num_switches()), -1);
    row->order.reserve(list_cap_);
  } else {
    row = &rows_[oldest_];
    oldest_ = (oldest_ + 1) % kMaxCached;
    if (row->listed) {
      for (NodeId n : row->order) row->dist[static_cast<std::size_t>(n)] = -1;
    } else {
      std::fill(row->dist.begin(), row->dist.end(), -1);
    }
  }
  row->dst = dst;
  row->depth = 0;
  row->complete = false;
  row->width = 1;
  row->listed = true;
  row->level = 0;
  row->order.assign(1, dst);
  row->dist[static_cast<std::size_t>(dst)] = 0;
  return *row;
}

// The row's nodes at `depth`: the tail of its list, or one O(V) scan of a
// row with too many labels to list.
void BfsSampler::load_frontier(const Row& row) {
  if (row.listed) {
    const auto level = static_cast<std::ptrdiff_t>(row.level);
    frontier_.assign(row.order.begin() + level, row.order.end());
    return;
  }
  frontier_.clear();
  for (NodeId n = 0; n < g_.num_switches(); ++n) {
    if (row.dist[static_cast<std::size_t>(n)] == row.depth)
      frontier_.push_back(n);
  }
}

void BfsSampler::start_ball(NodeId src) {
  if (ball_.empty()) ball_.resize(static_cast<std::size_t>(g_.num_switches()));
  if (gen_ >= std::numeric_limits<std::uint32_t>::max() - 2) {
    std::fill(ball_.begin(), ball_.end(), BallMark{});
    gen_ = 0;
  }
  gen_ += 2;
  mark(src) = {gen_, 0};
  ball_order_.assign(1, src);
  ball_levels_.assign(1, 0);
}

// Grows the row and src's ball toward each other one whole level at a
// time, the side with the smaller last level first and the row on a tie,
// since later flows to dst reuse it. Returns len = d(src, dst), or -1 when
// dst is unreachable. Before they meet, ball radius B and row depth D have
// len > B + D, so the level that first brings a shared node gives
// len = B + D through every shared node. Growth stops once the row covers
// src with depth >= K - 1, or once the sides have met and depth >= R_K =
// 2K - 2, so that every state the walk meets off the row is far
// (doc/architecture.md, "Path sampling"); the ball is then pruned to the
// shortest-path DAG.
template <bool kFiltered>
int BfsSampler::meet(Row& row, NodeId src) {
  start_ball(src);
  bool loaded = false;  // frontier_ holds the row's last level
  int len = -1;
  for (;;) {
    const int ds = row.dist[static_cast<std::size_t>(src)];
    if (row.complete) return ds;
    if (ds >= 0) len = ds;
    if (len >= 0 && row.depth >= (ds >= 0 ? k_ - 1 : 2 * k_ - 2)) break;
    const std::size_t ball_width = ball_order_.size() - ball_levels_.back();
    if (len < 0 && ball_width == 0) return -1;  // src's side ran out
    if (len < 0 && ball_width < row.width) {
      len = grow_ball<kFiltered>(row);
      continue;
    }
    if (!loaded) {
      if (row.depth > 0) ++counters_.rows_resumed;
      load_frontier(row);
      loaded = true;
    }
    const int met = grow_row<kFiltered>(row, len < 0);
    if (len < 0) len = met;
  }
  if (row.dist[static_cast<std::size_t>(src)] < 0) prune<kFiltered>(row, len);
  return len;
}

// Labels one row level from frontier_ and leaves the new level there.
// Excluded switches other than dst get a distance when first reached but
// are never expanded, so a distance through them is never propagated
// while an excluded source still learns its own distance. The row is
// complete once no node of the new level can be expanded. With `probe`,
// returns d(src, n) + d(n, dst) through the first node of the new level
// in the current ball, or -1 when none is.
template <bool kFiltered>
int BfsSampler::grow_row(Row& row, bool probe) {
  next_.clear();
  const std::int32_t depth = row.depth + 1;
  const bool masking = kFiltered && !excluded_.empty();
  int met = -1;
  for (NodeId n : frontier_) {
    if (masking && n != row.dst && masked(n)) continue;
    const auto& ports = g_.neighbors(n);
    counters_.row_edge_visits += ports.size();
    for (const Port& p : ports) {
      if (kFiltered && dead_.contains(p.link)) continue;
      auto& dn = row.dist[static_cast<std::size_t>(p.neighbor)];
      if (dn < 0) {
        dn = depth;
        next_.push_back(p.neighbor);
        if (probe && in_ball(p.neighbor)) {
          met = mark(p.neighbor).level + depth;
          probe = false;
        }
      }
    }
  }
  row.complete = masking ? std::all_of(next_.begin(), next_.end(),
                                       [&](NodeId n) { return masked(n); })
                         : next_.empty();
  if (row.listed && row.order.size() + next_.size() <= list_cap_) {
    row.level = row.order.size();
    row.order.insert(row.order.end(), next_.begin(), next_.end());
  } else {
    row.listed = false;
    row.order.clear();
  }
  row.depth = depth;
  row.width = next_.size();
  frontier_.swap(next_);
  return met;
}

// Labels one ball level and returns d(src, n) + d(n, dst) through a node
// of it the row has labelled (the same for all such nodes), or -1.
// Excluded switches other than dst never join the ball: no path passes
// through them.
template <bool kFiltered>
int BfsSampler::grow_ball(const Row& row) {
  const std::size_t begin = ball_levels_.back(), end = ball_order_.size();
  ball_levels_.push_back(end);
  const auto level = static_cast<std::int32_t>(ball_levels_.size() - 1);
  int len = -1;
  for (std::size_t i = begin; i < end; ++i) {
    const auto& ports = g_.neighbors(ball_order_[i]);
    counters_.ball_edge_visits += ports.size();
    for (const Port& p : ports) {
      const NodeId n = p.neighbor;
      if (in_ball(n) ||
          (kFiltered && (dead_.contains(p.link) ||
                         (n != row.dst && !excluded_.empty() && masked(n)))))
        continue;
      mark(n) = {gen_, level};
      ball_order_.push_back(n);
      const int dn = row.dist[static_cast<std::size_t>(n)];
      if (dn >= 0) len = level + dn;
    }
  }
  return len;
}

// Marks the ball's part of the shortest-path DAG, d(src, n) + d(n, dst) =
// len: at level m = len - depth, where the walk reaches the row, the nodes
// the row puts at depth; below it, level by level toward src, each node
// with a live port to a marked node one level out.
template <bool kFiltered>
void BfsSampler::prune(const Row& row, int len) {
  const int m = len - row.depth;
  const auto level_end = [&](int s) {
    const auto next = static_cast<std::size_t>(s) + 1;
    return next < ball_levels_.size() ? ball_levels_[next] : ball_order_.size();
  };
  for (std::size_t i = ball_levels_[static_cast<std::size_t>(m)];
       i < level_end(m); ++i) {
    const NodeId n = ball_order_[i];
    if (row.dist[static_cast<std::size_t>(n)] == row.depth)
      mark(n).stamp = gen_ + 1;
  }
  for (int s = m - 1; s >= 1; --s) {
    for (std::size_t i = ball_levels_[static_cast<std::size_t>(s)];
         i < level_end(s); ++i) {
      const NodeId n = ball_order_[i];
      for (const Port& p : g_.neighbors(n)) {
        ++counters_.ball_edge_visits;
        if (kFiltered && dead_.contains(p.link)) continue;
        if (on_dag(p.neighbor, s + 1)) {
          mark(n).stamp = gen_ + 1;
          break;
        }
      }
    }
  }
}

// Candidates in VrfTable's next-hop order: live ports in port order, then
// each port's virtual edges in for_each_virtual_edge order, keeping every
// tight one (a port tight under two edges is listed twice). Like the table
// walk, the path ends at the first visit to dst.
template <bool kFiltered>
Path BfsSampler::walk(NodeId src, NodeId dst, const Row& row, int len,
                      Rng& rng) {
  if (len < 0) return {};
  const std::vector<std::int32_t>& dist = row.dist;
  Path path{src};
  NodeId cur = src;
  int vrf = k_;
  const auto blocked = [&](const Port& p) {
    return kFiltered &&
           (dead_.contains(p.link) ||
            (p.neighbor != dst && !excluded_.empty() && masked(p.neighbor)));
  };
  // At d >= 2K - 1 every state has h = d and its tight edges are fixed by
  // the closed forms: VRF K drops to VRF 1 (rule 1, i = 1), VRF j < K
  // climbs to j + 1 (rule 2), and VRF 1 also stays (rule 3), listed after
  // the climb.
  const auto far_edges = [&](NodeId next) {
    scratch_.emplace_back(next, vrf == k_ ? 1 : vrf + 1);
    if (vrf == 1 && k_ > 1) scratch_.emplace_back(next, 1);
  };
  // Src side: a node the row has not labelled lies on the ball's DAG at
  // level s, len - s >= 2K - 1 hops from dst, so it is far, and its
  // neighbours one hop closer are the DAG's at level s + 1.
  for (int s = 0; dist[static_cast<std::size_t>(cur)] < 0; ++s) {
    scratch_.clear();
    for (const Port& p : g_.neighbors(cur)) {
      if (on_dag(p.neighbor, s + 1) && !blocked(p)) far_edges(p.neighbor);
    }
    std::tie(cur, vrf) = scratch_[rng.uniform(scratch_.size())];
    path.push_back(cur);
  }
  // Row side. Every edge costs >= 1 and h(next) >= d(next) >= d - 1, so
  // when h == d only neighbors one hop closer can be tight.
  while (cur != dst) {
    const int d = dist[static_cast<std::size_t>(cur)];
    const bool far = d >= 2 * k_ - 1;
    const int h = far ? d : vrf_distance(g_, dead_, dist, k_, dst, cur, vrf);
    scratch_.clear();
    for (const Port& p : g_.neighbors(cur)) {
      if ((h == d && dist[static_cast<std::size_t>(p.neighbor)] != d - 1) ||
          blocked(p))
        continue;
      if (far) {
        far_edges(p.neighbor);
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
