// Coarse-grained adaptive routing (the §7 future-work direction): pick
// between ECMP and Shortest-Union(K) per traffic matrix, at the granularity
// an operator could act on (route-map flips, not per-flowlet switching).
//
// Heuristic: Shortest-Union pays a path-stretch tax that hurts uniform
// traffic but buys path diversity that rescues patterns concentrated on
// ToR pairs with few shortest paths (adjacent racks in flat networks). We
// therefore compute the demand-weighted effective shortest-path diversity
// of the TM and switch to Shortest-Union when it is low.
#pragma once

#include "sim/network.h"
#include "topo/graph.h"
#include "workload/tm.h"

namespace spineless::core {

struct AdaptiveConfig {
  int su_k = 2;
  // Switch to Shortest-Union when the demand-weighted mean shortest-path
  // count across ToR pairs falls below this threshold, or when the top 10%
  // of sender racks carry more than 30% of the demand (skewed bursts are
  // where flat networks need the extra paths, §3/§6.1).
  double diversity_threshold = 8.0;
};

// Demand-weighted mean number of shortest paths over the TM's rack pairs,
// each pair's count capped at 1024.
double weighted_path_diversity(const topo::Graph& g,
                               const workload::RackTm& tm);

// Share of total demand emitted by the busiest ceil(10%) of sender racks —
// 1.0 for single-rack bursts, ~0.1 for uniform traffic.
double demand_concentration(const topo::Graph& g, const workload::RackTm& tm);

// The routing mode the coarse-grained adaptive policy selects for this TM.
sim::RoutingMode choose_routing(const topo::Graph& g,
                                const workload::RackTm& tm,
                                const AdaptiveConfig& cfg = {});

}  // namespace spineless::core
