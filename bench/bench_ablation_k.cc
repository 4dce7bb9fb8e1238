// Ablation A1 (DESIGN.md): the K in Shortest-Union(K). The paper picks
// K = 2 as "a good tradeoff between path diversity and path length"; this
// bench quantifies that tradeoff on the DRing:
//   * structural: mean path count and mean path length of SU(K),
//   * behavioral: median/p99 FCT for uniform (stretch-sensitive) and
//     adjacent rack-to-rack (diversity-sensitive) traffic, K = 1..4.
// K=1 is plain ECMP shortest-path routing.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "routing/paths.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Ablation: Shortest-Union(K) sweep on DRing", s,
                      flags);

  const topo::DRing dring = s.dring();
  const topo::Graph& g = dring.graph;
  const int k_max = static_cast<int>(flags.get_int("k_max", 4));

  util::Runner runner(bench::outer_jobs(flags));
  bench::BenchJson json("ablation_k", flags);

  // Structural census over all ToR pairs, one parallel cell per K.
  struct Census {
    double count = 0, len = 0;
    int max_len = 0;
    std::int64_t pairs = 0, paths = 0;
  };
  const auto census_cells = bench::sweep(
      runner, static_cast<std::size_t>(k_max), [&](std::size_t idx) {
        const int k = static_cast<int>(idx) + 1;
        Census c;
        for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
          for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
            if (a == b) continue;
            const auto su = routing::shortest_union_paths(g, a, b, k, 4096);
            c.count += static_cast<double>(su.size());
            for (const auto& p : su) {
              c.len += routing::path_length(p);
              c.max_len = std::max(c.max_len, routing::path_length(p));
            }
            c.paths += static_cast<std::int64_t>(su.size());
            ++c.pairs;
          }
        }
        return c;
      });

  Table census({"K", "mean #paths", "mean path len", "max path len"});
  for (int k = 1; k <= k_max; ++k) {
    const Census& c = census_cells[static_cast<std::size_t>(k - 1)].value;
    census.add_row({std::to_string(k),
                    Table::fmt(c.count / static_cast<double>(c.pairs), 1),
                    Table::fmt(c.len / static_cast<double>(c.paths), 2),
                    std::to_string(c.max_len)});
    bench::BenchJson::Cell jc;
    jc.label = "census K=" + std::to_string(k);
    jc.wall_s = census_cells[static_cast<std::size_t>(k - 1)].wall_s;
    json.add(std::move(jc));
  }
  std::printf("Path census (all ToR pairs):\n%s\n",
              census.to_string().c_str());

  // Behavioral sweeps: (K, TM) cells for the K sweep plus (weighted, TM)
  // cells for the splitting ablation, fanned out together.
  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);
  const topo::NodeId adj = g.neighbors(0)[0].neighbor;
  const auto uni_tm = workload::RackTm::uniform(g);
  const auto r2r_tm = workload::RackTm::rack_to_rack(g, 0, adj);
  const double r2r_load =
      base_load * workload::participating_fraction(g, r2r_tm);

  const auto nk = static_cast<std::size_t>(k_max);
  // Cells [0, 2*nk): K sweep; cells [2*nk, 2*nk+4): splitting ablation.
  const auto fct_cells =
      bench::sweep(runner, 2 * nk + 4, [&](std::size_t idx) {
        core::FctConfig cfg;
        cfg.net.intra_jobs = bench::intra_jobs_from(flags);
        cfg.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.flowgen.window = 2 * units::kMillisecond;
        cfg.seed = s.seed + 3;
        bool r2r;
        if (idx < 2 * nk) {
          cfg.net.su_k = static_cast<int>(idx / 2) + 1;
          r2r = idx % 2 != 0;
        } else {
          cfg.net.weighted_su = (idx - 2 * nk) / 2 != 0;
          r2r = idx % 2 != 0;
        }
        cfg.flowgen.offered_load_bps = r2r ? r2r_load : base_load;
        return core::run_fct_experiment(g, r2r ? r2r_tm : uni_tm, cfg);
      });

  Table fct({"K", "uniform p50 (ms)", "uniform p99 (ms)", "adjacent R2R p50",
             "adjacent R2R p99"});
  for (int k = 1; k <= k_max; ++k) {
    const auto base = static_cast<std::size_t>(k - 1) * 2;
    const auto& uni = fct_cells[base].value;
    const auto& r2r = fct_cells[base + 1].value;
    fct.add_row({std::to_string(k), Table::fmt(uni.median_ms()),
                 Table::fmt(uni.p99_ms()), Table::fmt(r2r.median_ms()),
                 Table::fmt(r2r.p99_ms())});
    json.add_fct("K=" + std::to_string(k) + " uniform", fct_cells[base]);
    json.add_fct("K=" + std::to_string(k) + " r2r", fct_cells[base + 1]);
    std::fprintf(stderr, "  K=%d done\n", k);
  }
  std::printf("FCT sweep (DRing, Shortest-Union(K)):\n%s\n",
              fct.to_string().c_str());

  Table split({"SU(2) splitting", "uniform p50", "uniform p99",
               "adjacent R2R p50", "adjacent R2R p99"});
  for (const bool weighted : {false, true}) {
    const std::size_t base = 2 * nk + (weighted ? 2 : 0);
    const auto& uni = fct_cells[base].value;
    const auto& r2r = fct_cells[base + 1].value;
    const char* label =
        weighted ? "weighted (path counts)" : "equal-cost hash";
    split.add_row({label, Table::fmt(uni.median_ms()),
                   Table::fmt(uni.p99_ms()), Table::fmt(r2r.median_ms()),
                   Table::fmt(r2r.p99_ms())});
    json.add_fct(std::string(label) + " uniform", fct_cells[base]);
    json.add_fct(std::string(label) + " r2r", fct_cells[base + 1]);
  }
  std::printf("%s", split.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
