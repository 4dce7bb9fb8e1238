// Topology analysis: the paper's §3.1 flatness metrics (NSR, UDF) plus the
// structural statistics used throughout the evaluation (path lengths,
// bisection bandwidth estimates, shortest-path counts).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"

namespace spineless::topo {

// Network-to-Server Ratio statistics over all switches that host servers
// (§3.1: "ratio of network ports to server ports").
struct NsrStats {
  double min = 0;
  double mean = 0;
  double max = 0;
};
NsrStats network_server_ratio(const Graph& g);

// UDF(T) = NSR(F(T)) / NSR(T), computed from constructed topologies.
double udf(const Graph& baseline, const Graph& flat);

// Closed-form §3.1 values for leaf-spine(x, y).
double leaf_spine_nsr(int x, int y);
double leaf_spine_flat_nsr(int x, int y);
double leaf_spine_udf(int x, int y);  // always 2

// BFS hop distances from src to every switch (-1 if unreachable).
std::vector<int> bfs_distances(const Graph& g, NodeId src);

struct PathLengthStats {
  int diameter = 0;
  double mean = 0;  // over ordered switch pairs (u != v)
};
PathLengthStats path_length_stats(const Graph& g);

// Number of distinct shortest paths between src and dst (counts capped at
// cap to avoid overflow on dense graphs).
std::int64_t count_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                  std::int64_t cap = 1'000'000);

// Upper-bound estimate of bisection width (links crossing the best balanced
// bipartition found): minimum over `trials` random balanced cuts and all
// contiguous sweep cuts in node order. Exact for DRing-style layouts where
// the contiguous cut is optimal; an upper bound in general.
int bisection_upper_bound(const Graph& g, int trials, std::uint64_t seed);

// Server-weighted mean shortest-path length: the expected ToR-to-ToR hop
// count of a uniformly random host pair (weights servers(a) * servers(b)).
double mean_host_path_length(const Graph& g);

// Counting upper bounds on uniform all-to-all throughput per host, in
// units of the line rate (the standard bounds from the throughput-
// measurement literature the paper builds on):
//  * distance bound — hosts * theta * mean_len <= 2 * links:
//      theta <= 2 L / (H * mean_host_path_length)
//  * bisection bound — under uniform traffic half the demand crosses a
//    balanced cut: theta <= 4 * bisection / H.
// The achievable throughput is at most min of the two.
struct ThroughputBounds {
  double distance_bound = 0;
  double bisection_bound = 0;
  double combined() const {
    return distance_bound < bisection_bound ? distance_bound
                                            : bisection_bound;
  }
};
ThroughputBounds uniform_throughput_bounds(const Graph& g, int cut_trials,
                                           std::uint64_t seed);

}  // namespace spineless::topo
