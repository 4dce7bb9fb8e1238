#include "core/adaptive.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "topo/analysis.h"
#include "util/error.h"

namespace spineless::core {
namespace {

// Demand share of the top 10% of sender racks above which the policy
// picks Shortest-Union whatever the path diversity.
constexpr double kConcentrationThreshold = 0.3;
constexpr std::int64_t kPathCountCap = 1024;

}  // namespace

double weighted_path_diversity(const topo::Graph& g,
                               const workload::RackTm& tm) {
  double weight_sum = 0;
  double weighted = 0;
  for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
    for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
      const double w = tm.at(a, b);
      if (w <= 0 || a == b) continue;
      const auto count = static_cast<double>(
          topo::count_shortest_paths(g, a, b, kPathCountCap));
      weighted += w * count;
      weight_sum += w;
    }
  }
  SPINELESS_CHECK(weight_sum > 0);
  return weighted / weight_sum;
}

double demand_concentration(const topo::Graph& g,
                            const workload::RackTm& tm) {
  std::vector<double> egress;
  double total = 0;
  for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
    if (g.servers(a) == 0) continue;
    double out = 0;
    for (topo::NodeId b = 0; b < g.num_switches(); ++b) out += tm.at(a, b);
    egress.push_back(out);
    total += out;
  }
  SPINELESS_CHECK(total > 0);
  std::sort(egress.rbegin(), egress.rend());
  const auto top = (egress.size() + 9) / 10;  // ceil(10%)
  double top_sum = 0;
  for (std::size_t i = 0; i < top; ++i) top_sum += egress[i];
  return top_sum / total;
}

sim::RoutingMode choose_routing(const topo::Graph& g,
                                const workload::RackTm& tm,
                                const AdaptiveConfig& cfg) {
  const double diversity = weighted_path_diversity(g, tm);
  const double concentration = demand_concentration(g, tm);
  const bool needs_paths = diversity < cfg.diversity_threshold ||
                           concentration > kConcentrationThreshold;
  return needs_paths ? sim::RoutingMode::kShortestUnion
                     : sim::RoutingMode::kEcmp;
}

}  // namespace spineless::core
