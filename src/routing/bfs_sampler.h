// The fluid side's one path sampler: a hop-by-hop walk over the implicit
// VRF graph of Shortest-Union(K) (routing/vrf.h) that draws one
// rng.uniform per hop among the tight virtual edges, in VrfTable's next-hop
// order, so its draws equal the all-pairs table walk's without the O(V^2)
// tables. ECMP is SU(1). Every VRF distance follows from one cached BFS
// row per destination; a sample grows that row and a ball around the
// source toward each other until they meet, and walks the ball's part of
// the shortest-path DAG before the row's (doc/architecture.md, "Path
// sampling").
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/types.h"

namespace spineless {
class Rng;
}

namespace spineless::routing {

class BfsSampler {
 public:
  // k: the Shortest-Union parameter (1 = ECMP). excluded: optional
  // per-switch mask (nonzero = no path passes THROUGH that switch; a
  // path's own endpoints are exempt), K = 1 only. It must outlive the
  // sampler.
  explicit BfsSampler(const Graph& g, int k = 1,
                      std::span<const char> excluded = {})
      : g_(g),
        k_(k),
        excluded_(excluded),
        list_cap_(static_cast<std::size_t>(g.num_switches()) / kListFraction +
                  1) {
    SPINELESS_CHECK(k >= 1 && (excluded.empty() || k == 1));
  }

  // One path src .. dst, drawing one rng.uniform per hop; empty when dst
  // is unreachable over live links and non-excluded switches.
  Path sample(NodeId src, NodeId dst, Rng& rng);

  // VrfTable::distance(node, vrf, dst) over the live links, from the BFS
  // row alone (kInfCost when unreachable).
  int distance(NodeId node, int vrf, NodeId dst);

  // Marks a link failed (routed around) or live again. Either call drops
  // the distance cache.
  void set_link_dead(LinkId link, bool dead);

  // BFS work since construction: rows started on a cache miss, cached
  // rows grown further for a farther source or a distance() call, ports
  // scanned while growing rows, and ports scanned while growing and
  // pruning source balls.
  struct Counters {
    std::uint64_t rows_built = 0;
    std::uint64_t rows_resumed = 0;
    std::uint64_t row_edge_visits = 0;
    std::uint64_t ball_edge_visits = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  // FIFO-bounded distance cache: skewed TMs concentrate destinations on few
  // racks, so a handful of arrays covers most flows; the bound keeps
  // worst-case memory at kMaxCached * num_switches ints. Purely a speed
  // cache — eviction can never change a sampled path.
  static constexpr std::size_t kMaxCached = 64;
  // A row lists its labelled nodes while they number at most
  // num_switches / kListFraction + 1; past that its clear and its resume
  // scan are O(V), which is then under kListFraction times the labels.
  static constexpr std::size_t kListFraction = 16;

  // One destination's BFS distance row, grown a level at a time: every
  // node within `depth` hops of dst holds its distance and every other
  // node holds -1, which means unreachable once `complete` is set.
  struct Row {
    NodeId dst = 0;
    std::int32_t depth = 0;
    bool complete = false;
    // Nodes at `depth`: the size of the next growth's frontier.
    std::size_t width = 1;
    std::vector<std::int32_t> dist;
    // While `listed`: every labelled node in BFS order, the nodes at
    // `depth` from index `level` on.
    bool listed = true;
    std::size_t level = 0;
    std::vector<NodeId> order;
  };
  // The current sample's source ball, generation-stamped so a sample
  // clears nothing: n is in the ball at `level` = d(src, n) when
  // stamp >= gen_, and on the pruned shortest-path DAG when
  // stamp == gen_ + 1.
  struct BallMark {
    std::uint32_t stamp = 0;
    std::int32_t level = 0;
  };

  Row& row_for(NodeId dst);
  void load_frontier(const Row& row);
  void start_ball(NodeId src);
  bool in_ball(NodeId n) const { return mark(n).stamp >= gen_; }
  bool on_dag(NodeId n, int level) const {
    return mark(n).stamp == gen_ + 1 && mark(n).level == level;
  }
  BallMark& mark(NodeId n) { return ball_[static_cast<std::size_t>(n)]; }
  const BallMark& mark(NodeId n) const {
    return ball_[static_cast<std::size_t>(n)];
  }
  // The filtered/unfiltered split is made once per call, so the common
  // case (no dead links, no mask) runs without a per-edge test.
  template <bool kFiltered>
  int meet(Row& row, NodeId src);
  template <bool kFiltered>
  int grow_row(Row& row, bool probe);
  template <bool kFiltered>
  int grow_ball(const Row& row);
  template <bool kFiltered>
  void prune(const Row& row, int len);
  template <bool kFiltered>
  Path walk(NodeId src, NodeId dst, const Row& row, int len, Rng& rng);
  bool masked(NodeId n) const {
    return excluded_[static_cast<std::size_t>(n)] != 0;
  }

  const Graph& g_;
  int k_;
  std::span<const char> excluded_;
  std::size_t list_cap_;  // the most nodes a listed row holds
  LinkSet dead_;
  std::vector<Row> rows_;
  std::size_t oldest_ = 0;  // the next row evicted once rows_ is full
  std::vector<NodeId> frontier_, next_;  // a row's BFS levels being grown
  std::vector<BallMark> ball_;
  std::uint32_t gen_ = 0;
  std::vector<NodeId> ball_order_;         // the ball in BFS order
  std::vector<std::size_t> ball_levels_;   // where each level starts in it
  std::vector<std::pair<NodeId, int>> scratch_;  // (neighbor, next VRF)
  Counters counters_;
};

}  // namespace spineless::routing
