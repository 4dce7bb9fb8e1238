// Max-min fair rate allocation by progressive filling — the fluid model of
// long-running TCP flows. Used for the paper's Figure 5 C-S throughput
// heatmaps, where packet-simulating all 256 heatmap cells would be
// prohibitive (§5.2: "all flows were long-running"), by the flow-level FCT
// stepper, and by the hybrid engine's fluid half.
#pragma once

#include <span>
#include <vector>

namespace spineless::flowsim {

// Persistent resource-constrained max-min problem: it owns every flow's
// route and every resource's capacity, both editable in place, and each
// solve() fills only the flows it is given. Each flow consumes unit rate on
// every resource it crosses.
class MaxMinProblem {
 public:
  // Every capacity must be >= 0 and not NaN (throws spineless::Error).
  explicit MaxMinProblem(std::vector<double> capacities);

  // Adds a flow crossing the given resources (duplicates allowed — a flow
  // crossing a resource twice consumes twice the rate there). Returns the
  // flow id. Every id must be in [0, num_resources()).
  int add_flow(std::vector<int> resources);
  // Replaces flow f's route (add_flow's contract).
  void set_route(int f, std::vector<int> resources);
  // Sets resource r's capacity (the constructor's contract).
  void set_capacity(int r, double capacity);

  int num_flows() const { return static_cast<int>(flows_.size()); }
  int num_resources() const { return static_cast<int>(capacity_.size()); }
  const std::vector<int>& route(int f) const {
    return flows_[static_cast<std::size_t>(f)];
  }

  // Max-min fair rates of the flows `ids`, rates[k] for ids[k]; flows not
  // listed take no capacity. A flow whose fair share reaches caps[k]
  // freezes there and releases its claim on further headroom, exactly as
  // if it crossed a private resource of capacity caps[k] (the hybrid
  // boundary layer's demand limits); pass no caps for none, +infinity for
  // one uncapped flow. A flow crossing no resource is unconstrained and
  // gets rate 0. Cost is proportional to the listed flows' routes and the
  // resources they cross, not to num_flows() or num_resources(): a
  // windowed hybrid solve on a 100k-switch network touches a few thousand
  // of its ~10^6 resources. Throws spineless::Error unless every id is a
  // flow, `caps` is empty or one per id, and every cap is >= 0, not NaN.
  std::vector<double> solve(std::span<const int> ids,
                            std::span<const double> caps = {});

  // Property-test hook: verifies `rates` (one per flow id, every flow
  // sharing the network) is feasible and max-min fair — every flow is
  // bottlenecked at some saturated resource where it has the maximal
  // rate — within tolerance.
  bool is_max_min_fair(const std::vector<double>& rates,
                       double tol = 1e-6) const;

 private:
  std::vector<double> capacity_;
  std::vector<std::vector<int>> flows_;
  // solve() scratch: each crossed resource's compact index, -1 between
  // solves. The only per-resource array a solve uses.
  std::vector<int> index_;
};

}  // namespace spineless::flowsim
