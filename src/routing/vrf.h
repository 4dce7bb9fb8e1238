// The paper's §4 routing design: realizing Shortest-Union(K) with K VRFs
// per router and shortest-path routing over a virtual "VRF graph".
//
// Virtual-connection gadget. For every *directed* physical link R1 -> R2:
//   (1) (VRF K, R1) -> (VRF i, R2)   cost i,  for i = 1..K
//   (2) (VRF i, R1) -> (VRF i+1, R2) cost 1,  for i = 1..K-1
//   (3) (VRF 1, R1) -> (VRF 1, R2)   cost 1
// Host interfaces live in VRF K, so a flow travels from (VRF K, src ToR) to
// (VRF K, dst ToR). A physical path of length L <= K costs exactly K (jump
// to VRF K-L+1, then ascend); a longer path costs its length (drop to VRF 1,
// walk, ascend at the end). Hence the VRF-graph distance is max(L, K)
// (Theorem 1) and the VRF-shortest paths project to exactly the
// Shortest-Union(K) physical path set.
//
// NOTE on the paper text: rule (2) as printed in the paper reads
// "(VRF (i+1), R1) -> (VRF i, R2)" (descending), which contradicts the
// Theorem 1 proof, where paths *ascend* through VRF levels towards the
// destination (and with only descending rules (VRF K, dst) would be
// unreachable except via the cost-K direct jump). We implement the
// ascending orientation, which is the one the proof and Figure 3 use; all
// of Theorem 1 is verified against it in tests and bench_vrf_bgp.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "routing/types.h"

namespace spineless::util {
class Runner;
}

namespace spineless::routing {

// Forward virtual edges out of VRF level j over one physical link, in the
// order next-hop sets list them. Calls fn(next_vrf, cost).
template <typename Fn>
void for_each_virtual_edge(int j, int k, Fn&& fn) {
  if (j == k) {
    for (int i = 1; i <= k; ++i) fn(i, i);  // rule (1)
  }
  if (j < k) fn(j + 1, 1);       // rule (2), ascending
  if (j == 1 && k > 1) fn(1, 1);  // rule (3); for k == 1 rule (1) covers it
}

// One forwarding choice in the VRF scheme: which physical port to take and
// which VRF the packet belongs to at the next router.
struct VrfHop {
  Port port;
  // Number of minimum-cost VRF-graph continuations through this edge
  // (saturating at a million). Equal-cost ECMP ignores it; weighted
  // (WCMP-style) forwarding splits traffic proportionally, so a direct
  // link is not drowned out by its many single-use detours.
  std::int32_t weight = 1;
  std::int16_t next_vrf = 0;  // 1-based VRF index at the neighbor
  std::int16_t cost = 0;      // virtual-link cost (for diagnostics)
};

// The all-pairs forwarding table of Shortest-Union(K): for every
// destination and every (vrf, node) state, the virtual edges on a
// minimum-cost path to (VRF K, dst) — the set BGP multipath would install.
// K = 1 is plain shortest-path ECMP (Theorem 1), so this one table serves
// both routing modes.
//
// Each destination costs one BFS: every VRF distance follows from its
// distance row (vrf_distance below). Storage is CSR over (dst, node, vrf)
// — one contiguous hop pool plus an offset table, each destination's
// states one contiguous slice — so a lookup is two loads and a build
// performs O(1) allocations per destination.
class VrfTable {
 public:
  // dead: links to treat as absent (failure modeling); next hops never use
  // them and distances route around them. Unreachable states get empty
  // next-hop sets and distance kInfCost. K = 1 with no dead link rejects
  // a disconnected graph.
  //
  // runner: optional pool to fan the per-destination work over. Every
  // write lands in a pre-sized per-destination slice (two passes: count,
  // prefix sum, fill), so the result is byte-identical to the serial
  // build (nullptr or a 1-job runner).
  static VrfTable compute(const Graph& g, int k, const LinkSet* dead = nullptr,
                          util::Runner* runner = nullptr);

  // distance() value for unreachable states.
  static constexpr int kInfCost = std::numeric_limits<int>::max() / 4;

  // Incremental repair (fault injection): recompute only the destinations
  // in `dsts` against the new dead set, splicing every other destination's
  // slice into the rebuilt CSR unchanged. Pair with
  // destinations_affected_by for a sound `dsts` set.
  void recompute_destinations(const Graph& g, const LinkSet* dead,
                              const std::vector<NodeId>& dsts,
                              util::Runner* runner = nullptr);

  // Destinations whose VRF-graph distances or next-hop sets can change
  // when `link` fails (now_dead = true) or is restored (now_dead = false),
  // judged against this (pre-change) table. Removal: d is affected iff
  // some tight edge toward d crosses the link. Restore: iff some gadget
  // edge over the link would be tight-or-better under the current
  // distances (c + dist(v-state) <= dist(u-state)).
  std::vector<NodeId> destinations_affected_by(const Graph& g,
                                               topo::LinkId link,
                                               bool now_dead) const;

  // One-call incremental splice (the serving layer's what-if queries):
  // the affected set against the pre-change table, then the transition
  // applied to `dead`, then the targeted recompute, packaged so callers
  // cannot get the ordering wrong. Returns the affected destinations.
  std::vector<NodeId> splice_link_change(const Graph& g, LinkSet& dead,
                                         topo::LinkId link, bool now_dead,
                                         util::Runner* runner = nullptr);

  int k() const noexcept { return k_; }

  // Minimum VRF-graph cost from (vrf, node) to (VRF K, dst).
  int distance(NodeId node, int vrf, NodeId dst) const {
    return dist_[index(node, vrf, dst)];
  }
  // Entry distance for traffic sourced at `node` (hosts live in VRF K).
  // Finite exactly when dst is reachable over the live links.
  int source_distance(NodeId node, NodeId dst) const {
    return distance(node, k_, dst);
  }

  std::span<const VrfHop> next_hops(NodeId node, int vrf, NodeId dst) const {
    const std::size_t i = index(node, vrf, dst);
    return {hops_.data() + off_[i], off_[i + 1] - off_[i]};
  }

  NodeId num_switches() const noexcept { return n_; }

  // Theorem 1 check for one pair: VRF distance == max(L, K) where L is the
  // physical hop distance.
  bool theorem1_holds(const Graph& g, NodeId src, NodeId dst) const;

 private:
  // Pass 1 for one destination: BFS, every state's distance into dist_,
  // and each state's tight-edge count into off_ (at index + 1).
  void count_destination(const Graph& g, const LinkSet& dead, NodeId dst);
  // Pass 2 for one destination: the tight edges with their weights, at the
  // offsets the prefix sum assigned.
  void fill_destination(const Graph& g, const LinkSet& dead, NodeId dst);

  std::size_t states() const {
    return static_cast<std::size_t>(n_) * static_cast<std::size_t>(k_);
  }
  // (node, vrf)'s offset within a destination's slice.
  std::size_t state(NodeId node, int vrf) const {
    SPINELESS_DCHECK(vrf >= 1 && vrf <= k_);
    return static_cast<std::size_t>(node) * static_cast<std::size_t>(k_) +
           static_cast<std::size_t>(vrf - 1);
  }
  std::size_t index(NodeId node, int vrf, NodeId dst) const {
    return static_cast<std::size_t>(dst) * states() + state(node, vrf);
  }

  int k_ = 0;
  NodeId n_ = 0;
  // CSR over (dst, node, vrf): hops_[off_[i] .. off_[i + 1]) are the next
  // hops of state i = index(node, vrf, dst); dist_ uses the same index.
  std::vector<VrfHop> hops_;
  std::vector<std::uint32_t> off_;
  std::vector<int> dist_;
};

// VrfTable::distance(n, j, dst) from dst's BFS distance row over the links
// not in `dead` (dist[n] < 0: unreachable), with the closed forms of
// doc/architecture.md ("Path sampling"); kInfCost when unreachable. The
// table and routing::BfsSampler share it, so both read one VRF-distance
// model.
int vrf_distance(const Graph& g, const LinkSet& dead,
                 std::span<const std::int32_t> dist, int k, NodeId dst,
                 NodeId n, int j);

}  // namespace spineless::routing
