// F1 (DESIGN.md): simulator fidelity. Runs the Figure-4 workloads through
// both engines — packet-level TCP and the event-driven fluid model — with
// identical flows and paths, and reports FCT percentiles plus the speedup.
//
// Expected: medians agree within tens of percent (the fluid model has no
// slow start, so small flows finish "too fast" by roughly an RTT), tails
// diverge where loss/RTO dynamics dominate, and the ordering across
// topologies is preserved — justifying fluid for wide sweeps (Fig. 5) and
// packet for tail claims (Fig. 4).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Fidelity: packet-level TCP vs flow-level fluid",
                      s, flags);

  const topo::DRing dring = s.dring();
  const topo::Graph& g = dring.graph;
  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);

  struct TmCase {
    std::string name;
    workload::RackTm tm;
  };
  std::vector<TmCase> tms;
  tms.push_back({"uniform", workload::RackTm::uniform(g)});
  tms.push_back({"FB skewed", workload::RackTm::fb_like_skewed(g, s.seed)});
  tms.push_back({"permutation", workload::RackTm::permutation(g, s.seed)});

  // (TM, engine) grid; even idx = packet TCP, odd = fluid. The per-cell
  // wall clock from the sweep is the number the speedup column reports.
  util::Runner runner(bench::outer_jobs(flags));
  const auto results =
      bench::sweep(runner, tms.size() * 2, [&](std::size_t idx) {
        const auto& c = tms[idx / 2];
        core::FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.flowgen.window = 2 * units::kMillisecond;
        cfg.flowgen.offered_load_bps =
            base_load * workload::participating_fraction(g, c.tm);
        cfg.seed = s.seed + 9;
        return idx % 2 == 0
                   ? core::run_fct_experiment(g, c.tm, cfg)
                   : core::run_fct_experiment_fluid(g, c.tm, cfg);
      });

  bench::BenchJson json("fidelity", flags);
  Table t({"TM", "engine", "p50 (ms)", "p99 (ms)", "completed",
           "wall (ms)"});
  for (std::size_t i = 0; i < tms.size(); ++i) {
    for (const bool fluid : {false, true}) {
      const auto& cell = results[2 * i + (fluid ? 1 : 0)];
      const auto& r = cell.value;
      t.add_row({tms[i].name, fluid ? "fluid" : "packet TCP",
                 Table::fmt(r.median_ms()), Table::fmt(r.p99_ms()),
                 std::to_string(r.completed) + "/" +
                     std::to_string(r.flows),
                 Table::fmt(cell.wall_s * 1e3, 0)});
      json.add_fct(tms[i].name + (fluid ? " | fluid" : " | packet"), cell);
    }
    std::fprintf(stderr, "  %s done\n", tms[i].name.c_str());
  }
  std::printf("%s", t.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
