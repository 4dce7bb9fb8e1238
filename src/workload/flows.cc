#include "workload/flows.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/error.h"

namespace spineless::workload {

double expected_truncated_flow_bytes() {
  // E[min(X, c)] for Pareto(alpha, xm) = xm + xm^a (c^(1-a) - xm^(1-a))/(1-a)
  // (the integral of the survival function up to the cap c). The floor at
  // kMinFlowBytes is below xm for the paper's parameters and ignored.
  const double a = kParetoAlpha;
  const double xm = kMeanFlowBytes * (a - 1.0) / a;
  const double c = static_cast<double>(kMaxFlowBytes);
  return xm + std::pow(xm, a) *
                  (std::pow(c, 1.0 - a) - std::pow(xm, 1.0 - a)) / (1.0 - a);
}

std::vector<FlowSpec> generate_flows(const TmSampler& sampler,
                                     const FlowGenConfig& cfg, Rng& rng) {
  SPINELESS_CHECK(cfg.offered_load_bps > 0);
  SPINELESS_CHECK(cfg.window > 0);
  const double target_bytes =
      cfg.offered_load_bps / 8.0 * units::to_seconds(cfg.window);
  // "The number of flows are determined according to the weights of the TM"
  // (§5.2): fix the flow count from the expected (truncated) flow size so
  // the expected volume hits the target — drawing until the volume is
  // reached would let one early heavy-tail elephant end generation.
  const auto n_flows = static_cast<std::size_t>(std::max(
      1.0, std::round(target_bytes / expected_truncated_flow_bytes())));

  std::vector<FlowSpec> flows;
  flows.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowSpec f;
    std::tie(f.src, f.dst) = sampler.sample(rng);
    const double raw = rng.pareto_with_mean(kParetoAlpha, kMeanFlowBytes);
    f.bytes = std::clamp<std::int64_t>(static_cast<std::int64_t>(raw),
                                       kMinFlowBytes, kMaxFlowBytes);
    f.start = static_cast<Time>(rng.uniform(
        static_cast<std::uint64_t>(cfg.window)));
    flows.push_back(f);
  }
  std::sort(flows.begin(), flows.end(),
            [](const FlowSpec& a, const FlowSpec& b) {
              return a.start < b.start;
            });
  return flows;
}

double spine_offered_load_bps(int x, int y, double line_rate_bps,
                              double utilization) {
  // Leaf-spine(x, y): (x + y) leaves with y uplinks each.
  const double uplink_capacity =
      static_cast<double>(x + y) * static_cast<double>(y) * line_rate_bps;
  return utilization * uplink_capacity;
}

double participating_fraction(const Graph& g, const RackTm& tm) {
  int total_racks = 0;
  for (NodeId n = 0; n < g.num_switches(); ++n)
    if (g.servers(n) > 0) ++total_racks;
  SPINELESS_CHECK(total_racks > 0);
  return static_cast<double>(tm.sending_racks()) /
         static_cast<double>(total_racks);
}

}  // namespace spineless::workload
