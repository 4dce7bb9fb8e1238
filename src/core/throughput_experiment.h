// C-S model throughput experiment (the paper's §6.2 / Figure 5): pack C
// clients and S servers per the C-S model, run one long flow per
// client-server pair (downsampled for huge products), route each flow the
// way hashed ECMP / Shortest-Union forwarding would (routing::BfsSampler),
// and compute max-min fair rates in the fluid model.
#pragma once

#include <cstdint>

#include "sim/network.h"
#include "topo/graph.h"

namespace spineless::core {

struct ThroughputConfig {
  double link_rate_bps = 10e9;
  sim::RoutingMode mode = sim::RoutingMode::kEcmp;
  int su_k = 2;
  std::size_t max_pairs = 20'000;  // cap on client x server flow count
  std::uint64_t seed = 1;
};

struct ThroughputResult {
  double mean_bps = 0;   // average per-flow max-min rate
  double total_bps = 0;  // aggregate C->S capacity
  std::size_t flows = 0;
};

// One heatmap cell: C clients sending to S servers, long-running flows.
ThroughputResult run_cs_throughput(const topo::Graph& g, int c, int s,
                                   const ThroughputConfig& cfg);

// The same cell measured the way the paper did (§6.2: long-running flows
// in the packet simulator): TCP flows with effectively infinite backlog,
// run for `duration`, mean goodput = acked bytes / duration. Far slower
// than the fluid model; used to validate selected heatmap cells
// (bench_fig5_cs_heatmap --validate).
ThroughputResult run_cs_throughput_packet(const topo::Graph& g, int c,
                                          int s, const ThroughputConfig& cfg,
                                          Time duration);

}  // namespace spineless::core
