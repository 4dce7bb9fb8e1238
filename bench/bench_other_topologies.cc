// B3 (DESIGN.md; §7 "other static networks"): Slim Fly / Dragonfly-class
// low-diameter designs "have been shown to have high performance... we
// expect them to also have high performance at small scales but
// practicality might be limited since they require non-oblivious routing".
//
// This bench puts Dragonfly and Xpander next to leaf-spine, DRing, and RRG
// at small scale, each with the routing it can realistically run (hashed
// ECMP / Shortest-Union(2) — i.e., the deployable schemes the paper
// targets). Topology families quantize differently, so the table reports
// each instance's switch count, network degree, and hosts; the offered
// load is normalized per host.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "topo/analysis.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

struct Candidate {
  std::string name;
  topo::Graph graph;
  sim::RoutingMode mode;
  const char* routing;
};

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header(
      "Other static networks: Dragonfly and Xpander at small scale", s,
      flags);

  const double per_host_gbps = flags.get_double("per_host_gbps", 2.0);

  std::vector<Candidate> candidates;
  candidates.push_back({"leaf-spine", s.leaf_spine(),
                        sim::RoutingMode::kEcmp, "ecmp"});
  candidates.push_back({"DRing", s.dring().graph,
                        sim::RoutingMode::kShortestUnion, "su2"});
  candidates.push_back({"RRG", s.rrg(), sim::RoutingMode::kShortestUnion,
                        "su2"});
  // Xpander: match the RRG's mean network degree as closely as the
  // (d+1)-divisibility allows.
  {
    const topo::Graph rrg = s.rrg();
    int degree = 0;
    for (topo::NodeId n = 0; n < rrg.num_switches(); ++n)
      degree += rrg.network_degree(n);
    degree /= rrg.num_switches();
    const int lift = std::max(2, s.num_switches() / (degree + 1));
    const int servers = s.ports_per_switch() - degree;
    candidates.push_back({"Xpander",
                          topo::make_xpander(degree, lift, servers, s.seed),
                          sim::RoutingMode::kShortestUnion, "su2"});
  }
  // Dragonfly: groups = a*h + 1 balanced instance near the scenario size.
  {
    const int a = 4, h = 1;
    const int groups = a * h + 1;
    // Provision servers to NSR ~ 1 (like the DRing) rather than filling
    // every port: Dragonfly is a low-degree design, and loading 28 hosts
    // onto 4 network ports would only measure oversubscription.
    const int servers = (a - 1) + h;
    candidates.push_back({"Dragonfly", topo::make_dragonfly(groups, a, h,
                                                            servers),
                          sim::RoutingMode::kShortestUnion, "su2"});
  }

  // One cell per (candidate, TM); even cells are uniform, odd are skewed.
  util::Runner runner(bench::outer_jobs(flags));
  const auto results =
      bench::sweep(runner, candidates.size() * 2, [&](std::size_t idx) {
        const topo::Graph& g = candidates[idx / 2].graph;
        core::FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.net.mode = candidates[idx / 2].mode;
        cfg.flowgen.window = 2 * units::kMillisecond;
        cfg.flowgen.offered_load_bps =
            per_host_gbps * 1e9 * g.total_servers();
        cfg.seed = s.seed + 17;
        const auto tm = idx % 2 == 0
                            ? workload::RackTm::uniform(g)
                            : workload::RackTm::fb_like_skewed(g, s.seed + 2);
        return core::run_fct_experiment(g, tm, cfg);
      });

  bench::BenchJson json("other_topologies", flags);
  Table t({"topology", "routing", "switches", "net degree", "hosts",
           "NSR", "diameter", "uniform p50 (ms)", "uniform p99 (ms)",
           "skewed p50 (ms)", "skewed p99 (ms)"});
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto& c = candidates[i];
    const topo::Graph& g = c.graph;
    const auto& uni = results[2 * i].value;
    const auto& skew = results[2 * i + 1].value;
    json.add_fct(c.name + " uniform", results[2 * i]);
    json.add_fct(c.name + " skewed", results[2 * i + 1]);

    double mean_degree = 0;
    for (topo::NodeId n = 0; n < g.num_switches(); ++n)
      mean_degree += g.network_degree(n);
    mean_degree /= g.num_switches();

    t.add_row({c.name, c.routing, std::to_string(g.num_switches()),
               Table::fmt(mean_degree, 1),
               std::to_string(g.total_servers()),
               Table::fmt(topo::network_server_ratio(g).mean, 2),
               std::to_string(topo::path_length_stats(g).diameter),
               Table::fmt(uni.median_ms()), Table::fmt(uni.p99_ms()),
               Table::fmt(skew.median_ms()), Table::fmt(skew.p99_ms())});
    std::fprintf(stderr, "  %s done\n", c.name.c_str());
  }
  std::printf("Offered load: %.1f Gbps per host\n\n%s", per_host_gbps,
              t.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
