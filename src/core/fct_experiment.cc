#include "core/fct_experiment.h"

#include <algorithm>

#include "flowsim/flow_level_sim.h"
#include "routing/bfs_sampler.h"
#include "sim/sharded_engine.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace spineless::core {

std::uint64_t fct_config_hash(const topo::Graph& g, const FctConfig& cfg) {
  sim::HashChain h;
  h.mix(cfg.seed)
      .mix(static_cast<std::uint64_t>(g.num_switches()))
      .mix(static_cast<std::uint64_t>(g.total_servers()))
      .mix(static_cast<std::uint64_t>(g.num_links()))
      .mix(static_cast<std::uint64_t>(cfg.net.mode))
      .mix(static_cast<std::uint64_t>(cfg.net.su_k))
      .mix(static_cast<std::uint64_t>(cfg.net.intra_jobs))
      .mix(static_cast<std::uint64_t>(cfg.net.link_rate_bps))
      .mix(static_cast<std::uint64_t>(cfg.net.flowlet_gap))
      .mix(static_cast<std::uint64_t>(cfg.net.ecn_threshold_bytes))
      .mix(static_cast<std::uint64_t>(cfg.flowgen.window))
      .mix(static_cast<std::uint64_t>(cfg.flowgen.offered_load_bps))
      .mix(static_cast<std::uint64_t>(cfg.drain_factor * 1024.0))
      .mix(static_cast<std::uint64_t>(cfg.random_placement ? 1 : 0))
      .mix(static_cast<std::uint64_t>(cfg.tcp.dctcp ? 1 : 0));
  return h.value();
}

std::vector<workload::FlowSpec> generate_experiment_flows(
    const topo::Graph& g, const workload::RackTm& tm, const FctConfig& cfg,
    Rng& rng) {
  workload::TmSampler sampler(g, tm);
  if (cfg.random_placement) sampler.apply_random_placement(rng);
  return workload::generate_flows(sampler, cfg.flowgen, rng);
}

Time run_deadline(const FctConfig& cfg) {
  return static_cast<Time>(static_cast<double>(cfg.flowgen.window) *
                           cfg.drain_factor);
}

FctResult run_fct_experiment(const topo::Graph& g, const workload::RackTm& tm,
                             const FctConfig& cfg) {
  Rng rng(cfg.seed);
  const auto specs = generate_experiment_flows(g, tm, cfg, rng);

  sim::Network net(g, cfg.net);
  sim::FlowDriver driver(net, cfg.tcp);
  const Time deadline = run_deadline(cfg);
  const sim::CheckpointSpec& spec = cfg.checkpoint;
  Time step = spec.interval;
  if (step <= 0) {
    // No interval given: boundaries only serve the audit/cancel/progress
    // hooks, so a coarse polling granularity is enough; without any hook
    // the run is one segment.
    const bool polls = spec.audit || static_cast<bool>(spec.cancel) ||
                       static_cast<bool>(spec.progress);
    step = polls ? std::max<Time>(1, deadline / 64) : deadline;
  }

  FctResult r;
  sim::with_engine(net, [&](auto& eng, sim::Simulator& control) {
    for (const auto& f : specs)
      driver.add_flow(control, f.src, f.dst, f.bytes, f.start);
    sim::CheckpointSession session(net, fct_config_hash(g, cfg));
    session.add(&driver);
    r.finished = sim::run_segments(eng, &session, spec, deadline, step);
    r.events = eng.events_processed();
  });

  r.fct_ms = driver.fct_ms();
  r.flows = driver.num_flows();
  r.completed = driver.completed_flows();
  r.queue_drops = net.stats().queue_drops;
  r.retransmits = driver.total_retransmits();
  r.max_queue_bytes = net.max_network_queue_bytes();
  r.intra_jobs = net.config().intra_jobs;
  r.table_build_s = net.table_build_seconds();
  return r;
}

FctResult run_fct_experiment_fluid(const topo::Graph& g,
                                   const workload::RackTm& tm,
                                   const FctConfig& cfg) {
  Rng rng(cfg.seed);
  const auto specs = generate_experiment_flows(g, tm, cfg, rng);

  routing::BfsSampler paths(g, sim::shortest_union_k(cfg.net.mode,
                                                      cfg.net.su_k));
  flowsim::FlowLevelSimulator fluid(
      g, static_cast<double>(cfg.net.link_rate_bps));
  for (const auto& f : specs) {
    fluid.add_flow(f.src, f.dst, f.bytes, f.start,
                   paths.sample(g.tor_of_host(f.src), g.tor_of_host(f.dst),
                                rng));
  }
  const std::size_t completed = fluid.run(run_deadline(cfg));

  FctResult r;
  r.fct_ms = fluid.fct_ms();
  r.flows = specs.size();
  r.completed = completed;
  return r;
}

}  // namespace spineless::core
