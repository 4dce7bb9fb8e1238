// Extension A4 (DESIGN.md; the paper's §1/§7 "wiring and management
// complexity" and §3.2 "incrementally expandable"): the operational side of
// the topology choice.
//
//  Part 1 — cabling: cable-length distribution and bundle counts for
//  leaf-spine, RRG, and DRing on the same machine-room floor. DRing's
//  neighbors-only structure keeps cables short and bundled; the RRG sprays
//  them across the room (the §1 adoption roadblock).
//
//  Part 2 — expansion: cost of growing each fabric by one rack's worth of
//  capacity. The DRing rewires O(n^2) cables at the insertion point; the
//  fully-populated leaf-spine has no free spine ports, so growth means
//  replacing the spine layer (every leaf uplink re-terminated).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "topo/cost.h"
#include "topo/expand.h"
#include "topo/wiring.h"
#include "util/table.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Operational advantages: cabling and expansion", s,
                      flags);

  const topo::Graph ls = s.leaf_spine();
  const topo::Graph rrg = s.rrg();
  const topo::DRing dring = s.dring();

  topo::LayoutConfig layout;
  layout.racks_per_row =
      static_cast<int>(flags.get_int("racks_per_row", 16));

  // One cell per topology: wiring census + priced BOM under one layout.
  const std::vector<const topo::Graph*> graphs = {&ls, &rrg, &dring.graph};
  struct OpsCell {
    topo::WiringReport wiring;
    topo::CostReport cost;
  };
  topo::CostModel model;
  util::Runner runner(bench::jobs_from(flags));
  const auto results =
      bench::sweep(runner, graphs.size(), [&](std::size_t i) {
        const topo::Graph& g = *graphs[i];
        const auto placement = topo::row_major_layout(g, layout);
        return OpsCell{topo::wiring_report(g, placement, layout),
                       topo::cost_report(g, placement, layout, model)};
      });

  bench::BenchJson json("operational", flags);
  Table cabling({"topology", "cables", "bundles", "total (m)", "mean (m)",
                 "p99 (m)", "max (m)", "<=5m fraction"});
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& rep = results[i].value.wiring;
    cabling.add_row({graphs[i]->name(), std::to_string(rep.cables),
                     std::to_string(rep.bundles), Table::fmt(rep.total_m, 0),
                     Table::fmt(rep.mean_m, 1),
                     Table::fmt(rep.lengths.p99(), 1),
                     Table::fmt(rep.max_m, 1),
                     Table::fmt(rep.local_fraction, 2)});
    bench::BenchJson::Cell jc;
    jc.label = graphs[i]->name();
    jc.wall_s = results[i].wall_s;
    json.add(std::move(jc));
  }
  std::printf("Cabling census (row-major floor, %d racks/row):\n%s\n",
              layout.racks_per_row, cabling.to_string().c_str());

  // Priced BOM under the same layout (same switches by construction; the
  // difference is cable classes).
  Table costs({"topology", "DAC", "AOC", "optics", "switch $", "cable $",
               "total $", "$ / server", "power (kW)"});
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto& rep = results[i].value.cost;
    costs.add_row({graphs[i]->name(), std::to_string(rep.dac),
                   std::to_string(rep.aoc), std::to_string(rep.optics),
                   Table::fmt(rep.switch_usd, 0), Table::fmt(rep.cable_usd, 0),
                   Table::fmt(rep.total_usd, 0),
                   Table::fmt(rep.usd_per_server, 0),
                   Table::fmt(rep.power_w / 1000.0, 2)});
  }
  std::printf("Equipment cost (defaults in topo/cost.h):\n%s\n",
              costs.to_string().c_str());

  // Expansion: add one supernode's worth of racks at every ring position.
  const int n = s.num_switches() / s.dring_supernodes;
  Table expansion({"insertion position", "cables kept", "cables added",
                   "cables removed", "untouched fraction"});
  for (int pos : {0, s.dring_supernodes / 2, s.dring_supernodes - 1}) {
    const auto exp = topo::expand_dring(dring, n, /*servers_per_tor=*/0, pos);
    expansion.add_row(
        {std::to_string(pos), std::to_string(exp.stats.links_kept),
         std::to_string(exp.stats.links_added),
         std::to_string(exp.stats.links_removed),
         Table::fmt(static_cast<double>(exp.stats.links_kept) /
                        dring.graph.num_links(),
                    3)});
  }
  std::printf("DRing expansion by one supernode (%d ToRs):\n%s\n", n,
              expansion.to_string().c_str());

  // Jellyfish-style growth of the RRG by the same number of switches.
  {
    topo::Graph grown = rrg;
    int added = 0, removed = 0;
    for (int i = 0; i < n; ++i) {
      const int degree = grown.network_degree(0) & ~1;  // even
      const auto exp = topo::expand_random(
          grown, degree, /*servers=*/0, s.seed + static_cast<std::uint64_t>(i));
      added += exp.stats.links_added;
      removed += exp.stats.links_removed;
      grown = exp.graph;
    }
    std::printf(
        "RRG (Jellyfish) growth by %d switches: %d cables added, %d "
        "re-terminated (%0.f%% of the original fabric untouched).\n\n",
        n, added, removed,
        100.0 * (1.0 - static_cast<double>(removed) / rrg.num_links()));
  }
  std::printf(
      "Leaf-spine comparison: all %d spine ports are occupied, so adding a "
      "%dth rack\nrequires replacing every spine switch and re-terminating "
      "all %d leaf uplinks.\n",
      s.y * (s.x + s.y), s.x + s.y + 1, s.y * (s.x + s.y));
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
