// Finite-flow workload generation for the FCT experiments (§5.2/§6.1):
// Pareto flow sizes (mean 100 KB, shape 1.05), start times uniform over the
// simulation window, total volume scaled to a target offered load.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/tm.h"

namespace spineless::workload {

struct FlowSpec {
  HostId src = 0;
  HostId dst = 0;
  std::int64_t bytes = 0;
  Time start = 0;
};

struct FlowGenConfig {
  double offered_load_bps = 0;             // aggregate demand rate
  Time window = 10 * units::kMillisecond;  // flow arrivals span [0, window)
};

inline constexpr double kMeanFlowBytes = 100e3;  // paper: Pareto mean 100 KB
inline constexpr double kParetoAlpha = 1.05;     // paper: "scale" 1.05
// Truncation keeps the alpha=1.05 tail from producing a single flow
// larger than the whole experiment; standard practice in DC studies.
inline constexpr std::int64_t kMaxFlowBytes = 30'000'000;
inline constexpr std::int64_t kMinFlowBytes = 1'500;  // at least one MTU

// Expected size of one generated flow under the truncated Pareto.
double expected_truncated_flow_bytes();

// Draws a fixed number of flows — offered_load_bps * window divided by the
// expected truncated flow size, so the *expected* volume hits the target
// (§5.2: "the number of flows are determined according to the weights of
// the TM"). Endpoints come from the sampler, sizes from the truncated
// Pareto, start times uniform over the window ("flow start times are
// chosen uniformly at random across the simulation window"). Sorted by
// start time.
std::vector<FlowSpec> generate_flows(const TmSampler& sampler,
                                     const FlowGenConfig& cfg, Rng& rng);

// §6.1 load scaling: offered load that drives the leaf-spine spine layer at
// `utilization` — utilization x aggregate leaf-uplink capacity — reused
// verbatim for the equal-equipment flat topologies so every topology sees
// the same demand.
double spine_offered_load_bps(int x, int y, double line_rate_bps,
                              double utilization);

// §6.1: "as only a small subset of the racks participate ... we further
// scale these TMs down by a factor = number of racks that send traffic /
// total racks".
double participating_fraction(const Graph& g, const RackTm& tm);

}  // namespace spineless::workload
