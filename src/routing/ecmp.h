// Standard shortest-path ECMP: the routing leaf-spine networks run today
// (BGP/OSPF + equal-cost multipath), and the paper's baseline routing for
// flat networks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/types.h"

namespace spineless::util {
class Runner;
}

namespace spineless::routing {

// Per-destination next-hop sets: at switch `node`, packets for destination
// ToR `dst` may take any port whose neighbor is one hop closer to dst.
//
// Storage is a flat CSR layout — one contiguous Port pool plus an offset
// table indexed by (dst, node) — instead of n^2 individual vectors, so
// per-packet lookups are two loads from contiguous arrays and table
// construction performs O(1) allocations.
class EcmpTable {
 public:
  // dead: links to treat as absent (failure modeling) — next hops never use
  // them and distances route around them. Unreachable destinations get an
  // empty next-hop set and distance -1.
  //
  // runner: optional pool to fan the per-destination BFS over. Destinations
  // are independent and every write lands in a pre-sized per-destination
  // slice, so the result is byte-identical to the serial build (nullptr or
  // a 1-job runner).
  static EcmpTable compute(const Graph& g, const LinkSet* dead = nullptr,
                           util::Runner* runner = nullptr);

  // Incremental repair (fault injection): recompute only the destinations
  // in `dsts` against the new dead set, splicing every other destination's
  // existing rows into the rebuilt CSR unchanged. BFS cost is
  // O(|dsts| * (V+E)) instead of O(V * (V+E)) for a full compute; pair
  // with destinations_affected_by to pick a sound `dsts` set.
  void recompute_destinations(const Graph& g, const LinkSet* dead,
                              const std::vector<NodeId>& dsts,
                              util::Runner* runner = nullptr);

  // Destinations whose distances or next-hop sets can change when `link`
  // fails (now_dead = true) or is restored (now_dead = false), judged
  // against this (pre-change) table. Exact for removals: a link is on some
  // shortest path toward d iff an endpoint's next-hop set references it.
  // For restores the criterion is the endpoints' distance gap (a link
  // joining equal-distance nodes creates no new shortest path).
  std::vector<NodeId> destinations_affected_by(const Graph& g,
                                               topo::LinkId link,
                                               bool now_dead) const;

  // One-call incremental splice (the serving layer's what-if queries):
  // find the destinations a single link transition can touch, apply the
  // transition to `dead`, and recompute exactly those destinations against
  // the updated set. Returns the affected destination list. Equivalent to
  // destinations_affected_by + dead.insert/erase + recompute_destinations,
  // packaged so callers cannot get the ordering wrong (the affected set
  // must be computed against the PRE-change table).
  std::vector<NodeId> splice_link_change(const Graph& g, LinkSet& dead,
                                         topo::LinkId link, bool now_dead,
                                         util::Runner* runner = nullptr);

  std::span<const Port> next_hops(NodeId node, NodeId dst) const {
    const std::size_t i = index(node, dst);
    return {ports_.data() + off_[i], off_[i + 1] - off_[i]};
  }
  int distance(NodeId node, NodeId dst) const {
    return dist_[index(node, dst)];
  }
  NodeId num_switches() const noexcept { return n_; }

 private:
  std::size_t index(NodeId node, NodeId dst) const {
    return static_cast<std::size_t>(dst) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(node);
  }

  NodeId n_ = 0;
  // CSR over (dst, node): ports_[off_[dst*n+node] .. off_[dst*n+node+1])
  // are the next hops of `node` toward `dst`; dist_ uses the same index.
  std::vector<Port> ports_;
  std::vector<std::uint32_t> off_;
  std::vector<int> dist_;
};

// Sanity checker used by tests and (behind NetworkConfig::validate_tables)
// by reconvergence: every next hop strictly decreases the distance to the
// destination (hence forwarding is loop-free), every switch that can still
// reach dst has at least one next hop, and table distances equal the true
// BFS distances of the surviving topology. `dead` names failed links, so
// post-failure tables validate against the degraded graph.
bool ecmp_table_valid(const Graph& g, const EcmpTable& table,
                      const LinkSet* dead = nullptr);

}  // namespace spineless::routing
