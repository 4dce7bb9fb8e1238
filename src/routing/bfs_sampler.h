// Shortest-path walk sampler for graphs too large for all-pairs next-hop
// tables (the hybrid engine above its table threshold, and its fluid
// re-paths around failed links): BFS distances toward the destination,
// then a walk from the source that picks uniformly among the neighbors one
// hop closer — hop-by-hop ECMP without the O(V^2) tables.
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
  // excluded: optional per-switch mask (nonzero = no path passes THROUGH
  // that switch; a path's own endpoints are exempt). It must outlive the
  // sampler.
  explicit BfsSampler(const Graph& g, std::span<const char> excluded = {})
      : g_(g), excluded_(excluded) {}

  // One path src .. dst, drawing one rng.uniform per hop; empty when dst
  // is unreachable over live links and non-excluded switches.
  Path sample(NodeId src, NodeId dst, Rng& rng);

  // Marks a link failed (routed around) or live again. Either call drops
  // the distance cache.
  void set_link_dead(LinkId link, bool dead);

 private:
  // FIFO-bounded distance cache: skewed TMs concentrate destinations on few
  // racks, so a handful of arrays covers most flows; the bound keeps
  // worst-case memory at kMaxCached * num_switches ints. Purely a speed
  // cache — eviction can never change a sampled path.
  static constexpr std::size_t kMaxCached = 64;

  // The filtered/unfiltered split is made once per call, so the common
  // case (no dead links, no mask) runs without a per-edge test.
  template <bool kFiltered>
  const std::vector<std::int32_t>& dist_to(NodeId dst);
  template <bool kFiltered>
  Path walk(NodeId src, NodeId dst, const std::vector<std::int32_t>& dist,
            Rng& rng);
  bool masked(NodeId n) const {
    return excluded_[static_cast<std::size_t>(n)] != 0;
  }

  const Graph& g_;
  std::span<const char> excluded_;
  LinkSet dead_;
  std::vector<std::pair<NodeId, std::vector<std::int32_t>>> cache_;
  std::vector<NodeId> scratch_;
};

}  // namespace spineless::routing
