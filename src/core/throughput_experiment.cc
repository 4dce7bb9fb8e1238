#include "core/throughput_experiment.h"

#include "flowsim/fluid_network.h"
#include "sim/tcp.h"
#include "util/error.h"
#include "workload/cs_model.h"

namespace spineless::core {

PathSampler::PathSampler(const topo::Graph& g, sim::RoutingMode mode,
                         int su_k)
    : mode_(mode), k_(su_k) {
  if (mode_ == sim::RoutingMode::kShortestUnion) {
    vrf_ = std::make_unique<routing::VrfTable>(
        routing::VrfTable::compute(g, su_k));
  } else {
    ecmp_ = routing::EcmpTable::compute(g);
  }
}

routing::Path PathSampler::sample(topo::NodeId src, topo::NodeId dst,
                                  Rng& rng) const {
  if (mode_ == sim::RoutingMode::kEcmp) {
    routing::Path path = routing::sample_ecmp_path(ecmp_, src, dst, rng);
    SPINELESS_CHECK_MSG(!path.empty(), "graph is disconnected");
    return path;
  }
  routing::Path path{src};
  topo::NodeId node = src;
  int vrf = k_;
  int guard = 0;
  while (node != dst) {
    SPINELESS_CHECK_MSG(++guard <= 64, "path sampling did not terminate");
    const auto& hops = vrf_->next_hops(node, vrf, dst);
    SPINELESS_CHECK(!hops.empty());
    const auto& h = hops[rng.uniform(hops.size())];
    node = h.port.neighbor;
    vrf = h.next_vrf;
    path.push_back(node);
  }
  return path;
}

ThroughputResult run_cs_throughput(const topo::Graph& g, int c, int s,
                                   const ThroughputConfig& cfg) {
  Rng rng(cfg.seed);
  const auto sets = workload::make_cs_sets(g, c, s, rng);
  const auto pairs = workload::cs_flow_pairs(sets, cfg.max_pairs, rng);

  PathSampler sampler(g, cfg.mode, cfg.su_k);
  flowsim::FluidNetwork net(g, cfg.link_rate_bps);
  for (const auto& [src, dst] : pairs) {
    const auto path =
        sampler.sample(g.tor_of_host(src), g.tor_of_host(dst), rng);
    net.add_flow(src, dst, path);
  }
  const auto rates = net.solve();

  ThroughputResult r;
  r.flows = rates.size();
  r.total_bps = flowsim::FluidNetwork::total(rates);
  r.mean_bps = flowsim::FluidNetwork::mean(rates);
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
