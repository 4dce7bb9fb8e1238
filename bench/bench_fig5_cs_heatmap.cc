// Figure 5 reproduction (E2 in DESIGN.md): C-S model throughput heatmaps.
// Each cell is throughput(DRing) / throughput(leaf-spine) for C clients
// sending long-running flows to S servers (max-min fair fluid model, one
// flow per client-server pair, downsampled when huge). Four panels:
//   (a) small C,S with DRing-ECMP      (b) small C,S with DRing-SU(2)
//   (c) large C,S with DRing-ECMP      (d) large C,S with DRing-SU(2)
// The leaf-spine baseline always runs standard ECMP.
//
// Expected shape (paper Fig. 5): ratios ~1 on the uniform diagonal,
// approaching the 2x UDF prediction for skewed cells (|C| << |S| or
// vice-versa); ECMP weak in the lower-left (small C and S), SU(2) fixes it.
//
// At the default medium scale the C,S axes are scaled by the server-count
// ratio (768/3072 = 1/4) so the panels cover the same relative range as
// the paper's 20..260 and 200..1400.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/throughput_experiment.h"
#include "util/table.h"

namespace spineless {
namespace {

using core::Scenario;
using core::ThroughputConfig;

std::vector<int> axis(int lo, int hi, int steps) {
  std::vector<int> v;
  for (int i = 0; i < steps; ++i)
    v.push_back(lo + (hi - lo) * i / (steps - 1));
  return v;
}

struct PanelSpec {
  const char* title;
  const std::vector<int>* cs;  // shared C and S axis
  sim::RoutingMode dring_mode;
};

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const Scenario s = bench::scenario_from(flags);
  bench::print_header(
      "Figure 5: C-S model throughput, DRing / leaf-spine", s, flags);

  const topo::Graph ls = s.leaf_spine();
  const topo::DRing dring = s.dring();
  std::printf("DRing: %d racks, %d servers; leaf-spine: %d racks, %d "
              "servers\n\n",
              dring.graph.num_switches(), dring.graph.total_servers(),
              topo::leaf_spine_num_leaves(s.x, s.y), ls.total_servers());

  // Scale the paper's axes by the server-count ratio; cap the large axis
  // so C + S always fits in the smaller topology (the DRing trades server
  // ports for ring links).
  const double scale =
      static_cast<double>(ls.total_servers()) / 3072.0;
  const int min_servers =
      std::min(ls.total_servers(), dring.graph.total_servers());
  const int steps = static_cast<int>(flags.get_int("steps", 5));
  const auto small_axis =
      axis(std::max(2, static_cast<int>(20 * scale)),
           static_cast<int>(260 * scale), steps);
  const auto large_axis =
      axis(std::max(4, static_cast<int>(200 * scale)),
           std::min(static_cast<int>(1400 * scale),
                    static_cast<int>(0.45 * min_servers)),
           steps);
  const std::uint64_t seed = s.seed + 5;

  const std::vector<PanelSpec> panels = {
      {"(a) small C,S — DRing ECMP vs leaf-spine ECMP", &small_axis,
       sim::RoutingMode::kEcmp},
      {"(b) small C,S — DRing Shortest-Union(2) vs leaf-spine ECMP",
       &small_axis, sim::RoutingMode::kShortestUnion},
      {"(c) large C,S — DRing ECMP vs leaf-spine ECMP", &large_axis,
       sim::RoutingMode::kEcmp},
      {"(d) large C,S — DRing Shortest-Union(2) vs leaf-spine ECMP",
       &large_axis, sim::RoutingMode::kShortestUnion},
  };

  // All four panels' (C, S) cells are independent — one flat sweep.
  const auto nsteps = static_cast<std::size_t>(steps);
  const std::size_t per_panel = nsteps * nsteps;
  util::Runner runner(bench::jobs_from(flags));
  const auto results = bench::sweep(
      runner, panels.size() * per_panel, [&](std::size_t idx) {
        const PanelSpec& p = panels[idx / per_panel];
        const int c = (*p.cs)[(idx / nsteps) % nsteps];
        const int srv = (*p.cs)[idx % nsteps];
        ThroughputConfig ls_cfg;
        ls_cfg.mode = sim::RoutingMode::kEcmp;
        ls_cfg.seed = seed;
        ThroughputConfig dr_cfg = ls_cfg;
        dr_cfg.mode = p.dring_mode;
        const auto base = core::run_cs_throughput(ls, c, srv, ls_cfg);
        const auto flat =
            core::run_cs_throughput(dring.graph, c, srv, dr_cfg);
        return flat.mean_bps / base.mean_bps;
      });

  bench::BenchJson json("fig5_cs_heatmap", flags);
  for (std::size_t pi = 0; pi < panels.size(); ++pi) {
    const PanelSpec& p = panels[pi];
    std::vector<std::vector<double>> cells;
    std::vector<std::string> row_labels, col_labels;
    for (int srv : *p.cs) col_labels.push_back(std::to_string(srv));
    for (std::size_t i = 0; i < nsteps; ++i) {
      row_labels.push_back(std::to_string((*p.cs)[i]));
      std::vector<double> row;
      for (std::size_t j = 0; j < nsteps; ++j) {
        const auto& cell = results[pi * per_panel + i * nsteps + j];
        row.push_back(cell.value);
        bench::BenchJson::Cell jc;
        jc.label = std::string("panel") + static_cast<char>('a' + pi) +
                   " C=" + row_labels.back() + " S=" + col_labels[j];
        jc.wall_s = cell.wall_s;
        json.add(std::move(jc));
      }
      cells.push_back(std::move(row));
    }
    std::printf("%s\n%s\n", p.title,
                render_heatmap(cells, row_labels, col_labels, "C\\S")
                    .c_str());
  }
  json.write();

  if (flags.get_bool("validate", false)) {
    // Re-measure a few cells the way the paper did — long-running TCP
    // flows in the packet simulator — and compare the DRing/leaf-spine
    // ratio against the fluid heatmap value.
    std::printf("Validation: fluid vs packet-measured ratios "
                "(Shortest-Union(2), 5 ms of simulated time):\n");
    Table v({"C", "S", "fluid ratio", "packet ratio"});
    const Time duration = 5 * units::kMillisecond;
    for (const auto& [c, srv] :
         std::vector<std::pair<int, int>>{{small_axis[1], small_axis[3]},
                                          {small_axis[3], small_axis[1]},
                                          {small_axis[2], small_axis[2]}}) {
      ThroughputConfig cfg;
      cfg.seed = seed;
      cfg.max_pairs = 2'000;  // keep the packet run tractable
      cfg.mode = sim::RoutingMode::kEcmp;
      const auto ls_fluid = core::run_cs_throughput(ls, c, srv, cfg);
      const auto ls_packet =
          core::run_cs_throughput_packet(ls, c, srv, cfg, duration);
      cfg.mode = sim::RoutingMode::kShortestUnion;
      const auto dr_fluid =
          core::run_cs_throughput(dring.graph, c, srv, cfg);
      const auto dr_packet =
          core::run_cs_throughput_packet(dring.graph, c, srv, cfg, duration);
      v.add_row({std::to_string(c), std::to_string(srv),
                 Table::fmt(dr_fluid.mean_bps / ls_fluid.mean_bps, 2),
                 Table::fmt(dr_packet.mean_bps / ls_packet.mean_bps, 2)});
      std::fprintf(stderr, "  validate C=%d S=%d done\n", c, srv);
    }
    std::printf("%s", v.to_string().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
