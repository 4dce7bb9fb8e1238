// Path enumeration: shortest paths, bounded-length paths, and the paper's
// Shortest-Union(K) scheme (§4) — all paths that are shortest OR of length
// <= K between a ToR pair.
#pragma once

#include <cstdint>

#include "routing/types.h"

namespace spineless::routing {

// All shortest paths from src to dst, up to `cap` paths (enumeration walks
// the BFS DAG; cap guards against combinatorial blowup on dense graphs).
PathSet enumerate_shortest_paths(const Graph& g, NodeId src, NodeId dst,
                                 std::size_t cap = 4096);

// All simple paths from src to dst with hop count <= max_len, up to `cap`.
PathSet enumerate_bounded_paths(const Graph& g, NodeId src, NodeId dst,
                                int max_len, std::size_t cap = 4096);

// Shortest-Union(K): union of the two sets above, deduplicated.
PathSet shortest_union_paths(const Graph& g, NodeId src, NodeId dst, int k,
                             std::size_t cap = 4096);

// Number of pairwise internally-vertex-disjoint paths that a greedy pass
// selects from `paths` (shortest-first). A lower bound on the true disjoint
// path count; used to check the paper's claim that Shortest-Union(2) gives
// at least n+1 disjoint paths between any two DRing racks.
int greedy_disjoint_count(const PathSet& paths);

}  // namespace spineless::routing
