#include "core/throughput_experiment.h"

#include <numeric>

#include "flowsim/maxmin.h"
#include "flowsim/resource_layout.h"
#include "routing/bfs_sampler.h"
#include "sim/tcp.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/cs_model.h"

namespace spineless::core {

ThroughputResult run_cs_throughput(const topo::Graph& g, int c, int s,
                                   const ThroughputConfig& cfg) {
  Rng rng(cfg.seed);
  const auto sets = workload::make_cs_sets(g, c, s, rng);
  const auto pairs = workload::cs_flow_pairs(sets, cfg.max_pairs, rng);

  routing::BfsSampler sampler(g, sim::shortest_union_k(cfg.mode, cfg.su_k));
  const flowsim::ResourceLayout layout(g);
  flowsim::MaxMinProblem problem(
      layout.capacities(cfg.link_rate_bps, cfg.link_rate_bps));
  std::vector<int> ids;
  for (const auto& [src, dst] : pairs) {
    const auto path =
        sampler.sample(g.tor_of_host(src), g.tor_of_host(dst), rng);
    ids.push_back(problem.add_flow(layout.flow(src, dst, path)));
  }
  const auto rates = problem.solve(ids);
  SPINELESS_CHECK(!rates.empty());

  ThroughputResult r;
  r.flows = rates.size();
  r.total_bps = std::accumulate(rates.begin(), rates.end(), 0.0);
  r.mean_bps = r.total_bps / static_cast<double>(rates.size());
  return r;
}

ThroughputResult run_cs_throughput_packet(const topo::Graph& g, int c,
                                          int s, const ThroughputConfig& cfg,
                                          Time duration) {
  SPINELESS_CHECK(duration > 0);
  Rng rng(cfg.seed);
  const auto sets = workload::make_cs_sets(g, c, s, rng);
  const auto pairs = workload::cs_flow_pairs(sets, cfg.max_pairs, rng);

  sim::NetworkConfig net_cfg;
  net_cfg.mode = cfg.mode;
  net_cfg.su_k = cfg.su_k;
  net_cfg.link_rate_bps = static_cast<std::int64_t>(cfg.link_rate_bps);
  sim::Simulator simulator;
  sim::Network net(g, net_cfg);
  sim::FlowDriver driver(net, sim::TcpConfig{});
  // "Infinite" backlog: more than any flow can move within the window.
  const std::int64_t backlog =
      static_cast<std::int64_t>(cfg.link_rate_bps / 8.0 *
                                units::to_seconds(duration) * 2) +
      1'000'000;
  for (const auto& [src, dst] : pairs)
    driver.add_flow(simulator, src, dst, backlog, 0);
  simulator.run_until(duration);

  ThroughputResult r;
  r.flows = driver.num_flows();
  double total = 0;
  for (std::size_t i = 0; i < driver.num_flows(); ++i) {
    total += static_cast<double>(driver.flow(i).bytes_acked()) * 8.0 /
             units::to_seconds(duration);
  }
  r.total_bps = total;
  r.mean_bps = r.flows > 0 ? total / static_cast<double>(r.flows) : 0.0;
  return r;
}

}  // namespace spineless::core
