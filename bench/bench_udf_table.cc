// §3.1 reproduction (E4 in DESIGN.md): the flatness analysis — NSR and UDF
// for leaf-spine vs its equal-equipment flat rewirings, plus the structural
// statistics behind the paper's arguments (path lengths for the congestion
// argument, bisection for §6.3's scale argument).
//
// Expected: UDF(leaf-spine) = 2 in closed form for every (x, y); the
// constructed RRG flat transform measures ~2 (server-count quantization);
// flat topologies have strictly higher NSR.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/udf_report.h"
#include "topo/analysis.h"
#include "util/table.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Section 3.1: NSR / UDF analysis", s, flags);

  // One analytic cell; the sweep still gives per-cell wall time + JSON.
  util::Runner runner(bench::jobs_from(flags));
  const auto cells = bench::sweep(
      runner, 1, [&](std::size_t) { return core::make_udf_report(s); });
  const core::UdfReport& rep = cells[0].value;
  bench::BenchJson json("udf_table", flags);
  {
    bench::BenchJson::Cell jc;
    jc.label = "udf_report";
    jc.wall_s = cells[0].wall_s;
    json.add(std::move(jc));
  }
  Table t({"topology", "switches", "servers", "NSR(mean)", "NSR(min)",
           "NSR(max)", "diameter", "mean path", "bisection<="});
  for (const auto* r : {&rep.leaf_spine, &rep.rrg, &rep.dring}) {
    t.add_row({r->name, std::to_string(r->switches),
               std::to_string(r->servers), Table::fmt(r->nsr.mean),
               Table::fmt(r->nsr.min), Table::fmt(r->nsr.max),
               std::to_string(r->paths.diameter), Table::fmt(r->paths.mean),
               std::to_string(r->bisection_upper)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("UDF(leaf-spine), closed form : %.3f\n", rep.udf_closed_form);
  std::printf("UDF via constructed RRG F(T) : %.3f\n", rep.udf_rrg);
  std::printf("UDF via constructed DRing    : %.3f\n\n", rep.udf_dring);

  // The UDF is independent of (x, y): sweep a few shapes.
  Table sweep({"x", "y", "NSR(T)", "NSR(F(T))", "UDF"});
  for (const auto& [x, y] : std::vector<std::pair<int, int>>{
           {12, 4}, {24, 8}, {48, 16}, {30, 10}, {36, 6}, {96, 32}}) {
    sweep.add_row({std::to_string(x), std::to_string(y),
                   Table::fmt(topo::leaf_spine_nsr(x, y)),
                   Table::fmt(topo::leaf_spine_flat_nsr(x, y)),
                   Table::fmt(topo::leaf_spine_udf(x, y))});
  }
  std::printf("UDF is 2 for every leaf-spine(x, y):\n%s",
              sweep.to_string().c_str());
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
