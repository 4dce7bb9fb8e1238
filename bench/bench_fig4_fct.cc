// Figure 4 reproduction (E1 in DESIGN.md): median and 99th-percentile flow
// completion times for the §5.2 traffic matrices across
//   leaf-spine (ecmp), DRing (shortest-union(2)), RRG (shortest-union(2)),
//   DRing (ecmp), RRG (ecmp).
//
// TMs are scaled so the leaf-spine spine layer runs at 30% utilization;
// R2R and C-S TMs are further scaled by (sending racks / total racks), as
// in §6.1. Expected shape (paper Fig. 4): flat topologies clearly better
// for skewed TMs, comparable for uniform; DRing+ECMP collapses on R2R and
// Shortest-Union(2) repairs it.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "util/table.h"
#include "workload/cs_model.h"
#include "workload/flows.h"

namespace spineless {
namespace {

using core::FctConfig;
using core::Scenario;
using topo::Graph;
using topo::NodeId;
using workload::RackTm;

struct TopoConfig {
  std::string name;
  const Graph* graph;
  sim::RoutingMode mode;
};

struct TmCase {
  std::string name;
  bool random_placement = false;
  // Builds the TM for a given (flat-aware) topology.
  std::function<RackTm(const Graph&)> make;
};

// R2R: on flat networks pick an *adjacent* rack pair — the case §4 calls
// out (one shortest path); on leaf-spine any leaf pair is equivalent.
RackTm r2r_tm(const Graph& g) {
  const NodeId a = 0;
  NodeId b = g.servers(g.neighbors(a)[0].neighbor) > 0
                 ? g.neighbors(a)[0].neighbor
                 : 1;
  if (g.servers(b) == 0) b = 1;
  return RackTm::rack_to_rack(g, a, b);
}

// C-S skewed per Fig. 4's caption: C = n/4 clients, S = n/16 servers.
RackTm cs_skewed_tm(const Graph& g, std::uint64_t seed) {
  Rng rng(seed);
  const int n = g.total_servers();
  const auto sets = workload::make_cs_sets(g, n / 4, n / 16, rng);
  return workload::cs_rack_tm(g, sets);
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const Scenario s = bench::scenario_from(flags);
  bench::print_header("Figure 4: flow completion times", s, flags);

  const Graph ls = s.leaf_spine();
  const Graph rrg = s.rrg();
  const topo::DRing dring = s.dring();

  const std::vector<TopoConfig> configs = {
      {"leaf-spine (ecmp)", &ls, sim::RoutingMode::kEcmp},
      {"DRing (su2)", &dring.graph, sim::RoutingMode::kShortestUnion},
      {"RRG (su2)", &rrg, sim::RoutingMode::kShortestUnion},
      {"DRing (ecmp)", &dring.graph, sim::RoutingMode::kEcmp},
      {"RRG (ecmp)", &rrg, sim::RoutingMode::kEcmp},
  };

  const std::uint64_t seed = s.seed + 10;
  const std::vector<TmCase> tms = {
      {"A2A", false, [](const Graph& g) { return RackTm::uniform(g); }},
      {"R2R", false, r2r_tm},
      {"CS skewed", false,
       [&](const Graph& g) { return cs_skewed_tm(g, seed); }},
      {"FB skewed", false,
       [&](const Graph& g) { return RackTm::fb_like_skewed(g, seed); }},
      {"FB uniform", false,
       [&](const Graph& g) { return RackTm::fb_like_uniform(g, seed); }},
      {"FB skewed (RP)", true,
       [&](const Graph& g) { return RackTm::fb_like_skewed(g, seed); }},
      {"FB uniform (RP)", true,
       [&](const Graph& g) { return RackTm::fb_like_uniform(g, seed); }},
  };

  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, /*utilization=*/0.3);
  const Time window =
      flags.get_int("window_ms", 2) * units::kMillisecond;
  // --seeds=N averages each cell over N workload seeds (default 1).
  const int seeds = static_cast<int>(flags.get_int("seeds", 1));

  std::vector<std::string> header{"TM"};
  for (const auto& c : configs) header.push_back(c.name);
  Table median(header), p99(header);

  // TMs are deterministic in (graph, seed); build them once up front so
  // the parallel cells share identical workloads per column (the paired-
  // comparison design: every topology column sees the same flows).
  std::vector<std::vector<RackTm>> built_tms;
  built_tms.reserve(tms.size());
  for (const auto& tm_case : tms) {
    std::vector<RackTm> per_config;
    per_config.reserve(configs.size());
    for (const auto& cfg_case : configs)
      per_config.push_back(tm_case.make(*cfg_case.graph));
    built_tms.push_back(std::move(per_config));
  }

  // One cell per (TM, topology, rep), fanned over the runner. The seed is
  // a pure function of the cell's identity (rep), never of scheduling, so
  // output is byte-identical for every --jobs value.
  const std::size_t ncfg = configs.size();
  const auto nseeds = static_cast<std::size_t>(seeds);
  const std::size_t ncells = tms.size() * ncfg * nseeds;
  util::Runner runner(bench::outer_jobs(flags));
  const auto results =
      bench::sweep(runner, ncells, [&](std::size_t idx) {
        const std::size_t ti = idx / (ncfg * nseeds);
        const std::size_t ci = (idx / nseeds) % ncfg;
        const auto rep = static_cast<std::uint64_t>(idx % nseeds);
        const Graph& g = *configs[ci].graph;
        const RackTm& tm = built_tms[ti][ci];
        FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.net.mode = configs[ci].mode;
        cfg.flowgen.window = window;
        cfg.flowgen.offered_load_bps =
            base_load * workload::participating_fraction(g, tm);
        cfg.random_placement = tms[ti].random_placement;
        cfg.seed = s.seed + 99 + rep * 1000;
        return core::run_fct_experiment(g, tm, cfg);
      });

  bench::BenchJson json("fig4_fct", flags);
  for (std::size_t ti = 0; ti < tms.size(); ++ti) {
    const auto& tm_case = tms[ti];
    std::vector<std::string> med_row{tm_case.name}, p99_row{tm_case.name};
    for (std::size_t ci = 0; ci < ncfg; ++ci) {
      double med_sum = 0, p99_sum = 0;
      std::size_t flows = 0, done = 0;
      long drops = 0;
      for (std::size_t rep = 0; rep < nseeds; ++rep) {
        const std::size_t idx = (ti * ncfg + ci) * nseeds + rep;
        const auto& res = results[idx].value;
        med_sum += res.median_ms();
        p99_sum += res.p99_ms();
        flows += res.flows;
        done += res.completed;
        drops += static_cast<long>(res.queue_drops);
        json.add_fct(tm_case.name + " | " + configs[ci].name + " | rep" +
                         std::to_string(rep),
                     results[idx]);
      }
      med_row.push_back(Table::fmt(med_sum / seeds));
      p99_row.push_back(Table::fmt(p99_sum / seeds));
      std::fprintf(stderr,
                   "  [%s | %-18s] flows=%zu done=%zu drops=%ld (x%d)\n",
                   tm_case.name.c_str(), configs[ci].name.c_str(), flows,
                   done, drops, seeds);
    }
    median.add_row(std::move(med_row));
    p99.add_row(std::move(p99_row));
  }

  std::printf("(a) Median FCT (ms)\n%s\n", median.to_string().c_str());
  std::printf("(b) 99th percentile FCT (ms)\n%s", p99.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
