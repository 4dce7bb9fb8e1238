// Extension A2 (DESIGN.md; the paper's §7 "coarse-grained adaptive
// routing"): neither ECMP nor Shortest-Union(2) wins everywhere — ECMP's
// shorter paths help uniform traffic, SU(2)'s diversity rescues
// low-diversity patterns. The adaptive policy picks per TM from the
// demand-weighted shortest-path diversity, and should track the better of
// the two fixed schemes on every TM.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "core/adaptive.h"
#include "core/fct_experiment.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Extension: coarse-grained adaptive routing (DRing)",
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
  tms.push_back(
      {"adjacent R2R",
       workload::RackTm::rack_to_rack(g, 0, g.neighbors(0)[0].neighbor)});
  tms.push_back({"FB skewed", workload::RackTm::fb_like_skewed(g, s.seed)});
  tms.push_back(
      {"FB uniform", workload::RackTm::fb_like_uniform(g, s.seed)});

  // The adaptive policy is a cheap structural decision; resolve it per TM
  // up front so each (TM, scheme) cell is a plain fixed-mode experiment.
  std::vector<sim::RoutingMode> chosen;
  for (const auto& c : tms) chosen.push_back(core::choose_routing(g, c.tm));

  util::Runner runner(bench::outer_jobs(flags));
  const auto results =
      bench::sweep(runner, tms.size() * 3, [&](std::size_t idx) {
        const auto& c = tms[idx / 3];
        core::FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.flowgen.window = 2 * units::kMillisecond;
        cfg.flowgen.offered_load_bps =
            base_load * workload::participating_fraction(g, c.tm);
        cfg.seed = s.seed + 31;
        switch (idx % 3) {
          case 0: cfg.net.mode = sim::RoutingMode::kEcmp; break;
          case 1: cfg.net.mode = sim::RoutingMode::kShortestUnion; break;
          default: cfg.net.mode = chosen[idx / 3]; break;
        }
        return core::run_fct_experiment(g, c.tm, cfg);
      });

  bench::BenchJson json("adaptive", flags);
  Table t({"TM", "diversity", "concentration", "chosen", "ecmp p99 (ms)",
           "su2 p99 (ms)", "adaptive p99 (ms)"});
  for (std::size_t i = 0; i < tms.size(); ++i) {
    const auto& c = tms[i];
    const auto& ecmp = results[3 * i].value;
    const auto& su2 = results[3 * i + 1].value;
    const auto& adaptive = results[3 * i + 2].value;
    t.add_row({c.name, Table::fmt(core::weighted_path_diversity(g, c.tm), 1),
               Table::fmt(core::demand_concentration(g, c.tm), 2),
               chosen[i] == sim::RoutingMode::kEcmp ? "ecmp" : "su2",
               Table::fmt(ecmp.p99_ms()), Table::fmt(su2.p99_ms()),
               Table::fmt(adaptive.p99_ms())});
    std::fprintf(stderr, "  %s done\n", c.name.c_str());
    json.add_fct(c.name + " | ecmp", results[3 * i]);
    json.add_fct(c.name + " | su2", results[3 * i + 1]);
    json.add_fct(c.name + " | adaptive", results[3 * i + 2]);
  }
  std::printf("%s", t.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
