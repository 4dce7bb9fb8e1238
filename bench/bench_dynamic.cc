// B2 (DESIGN.md; §7 "Dynamic Networks based on flat topologies"): Opera
// imposes transient *expander* graphs while links reconfigure; the paper
// asks "how much improvement can be gained by reconfiguring links to
// obtain another flat network instead of an expander" at small scale.
//
// Fluid-model study: time is sliced into slots; in each slot the fabric is
// one configuration from a rotation family. Long-running flows get the
// slot's max-min fair rate; a flow's effective rate is the slot average
// (flows outlive many reconfigurations). We compare rotation families
// built from (a) DRing relabelings and (b) fresh RRG samples, against the
// matching static fabric, for uniform and skewed demands.
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_common.h"
#include "flowsim/maxmin.h"
#include "flowsim/resource_layout.h"
#include "routing/bfs_sampler.h"
#include "topo/builders.h"
#include "topo/expand.h"
#include "util/error.h"
#include "util/table.h"
#include "workload/cs_model.h"
#include "util/rng.h"

namespace spineless {
namespace {

using topo::Graph;
using topo::HostId;

// Mean per-flow rate of `pairs` long flows on graph g under SU(2)-style
// hashed paths (fluid model).
double mean_rate(const Graph& g,
                 const std::vector<std::pair<HostId, HostId>>& pairs,
                 std::uint64_t seed) {
  routing::BfsSampler sampler(g, 2);
  const flowsim::ResourceLayout layout(g);
  flowsim::MaxMinProblem problem(layout.capacities(10e9, 10e9));
  Rng rng(seed);
  std::vector<int> ids;
  for (const auto& [a, b] : pairs) {
    ids.push_back(problem.add_flow(layout.flow(
        a, b, sampler.sample(g.tor_of_host(a), g.tor_of_host(b), rng))));
  }
  const auto rates = problem.solve(ids);
  SPINELESS_CHECK(!rates.empty());
  return std::accumulate(rates.begin(), rates.end(), 0.0) /
         static_cast<double>(rates.size());
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const int m = static_cast<int>(flags.get_int("supernodes", 8));
  const int n = static_cast<int>(flags.get_int("n", 3));
  const int servers = static_cast<int>(flags.get_int("servers", 8));
  const int slots = static_cast<int>(flags.get_int("slots", 6));

  std::printf("== Dynamic flat networks (fluid, %d slots): rotate-to-DRing "
              "vs rotate-to-RRG ==\n", slots);
  const topo::DRing base = topo::make_dring(m, n, servers);
  const int racks = base.graph.num_switches();
  const int degree = base.graph.network_degree(0);
  std::printf("%d racks, network degree %d, %d servers/rack, jobs=%d\n\n",
              racks, degree, servers, bench::jobs_from(flags));

  // Demands: uniform pairs and a skewed burst (one rack to the rest).
  Rng rng(3);
  std::vector<std::pair<HostId, HostId>> uniform_pairs;
  const int hosts = base.graph.total_servers();
  for (int i = 0; i < 4 * hosts; ++i) {
    const auto a = static_cast<HostId>(rng.uniform(
        static_cast<std::uint64_t>(hosts)));
    auto b = static_cast<HostId>(rng.uniform(
        static_cast<std::uint64_t>(hosts)));
    if (a == b) b = (b + 1) % hosts;
    uniform_pairs.emplace_back(a, b);
  }
  std::vector<std::pair<HostId, HostId>> burst_pairs;
  for (int i = 0; i < servers; ++i)
    for (int r = 1; r < racks; ++r)
      burst_pairs.emplace_back(
          base.graph.first_host_of(0) + i,
          base.graph.first_host_of(static_cast<topo::NodeId>(r)));

  struct Family {
    const char* name;
    std::vector<Graph> slots;
  };
  std::vector<Family> families;
  // (a) DRing rotations: relabel which physical rack plays which ring role
  //     each slot (a cyclic shift of the supernode assignment).
  {
    Family f{"rotating DRing", {}};
    for (int slot = 0; slot < slots; ++slot) {
      topo::DRing d = topo::make_dring(m, n, servers);
      // Shift: rack i takes the role of rack (i + shift) — realized by
      // regenerating with a rotated ring order.
      std::vector<int> order(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        order[static_cast<std::size_t>(i)] = (i + slot) % m;
      std::vector<int> srv(static_cast<std::size_t>(racks), servers);
      f.slots.push_back(topo::dring_graph_from_metadata(
          d.supernode_of, order, 0, srv));
    }
    families.push_back(std::move(f));
  }
  // (b) Expander rotations: a fresh equal-degree RRG per slot.
  {
    Family f{"rotating RRG", {}};
    for (int slot = 0; slot < slots; ++slot)
      f.slots.push_back(topo::make_rrg(racks, degree, servers,
                                       static_cast<std::uint64_t>(slot) + 11));
    families.push_back(std::move(f));
  }
  // Static references.
  families.push_back(Family{"static DRing", {base.graph}});
  families.push_back(
      Family{"static RRG", {topo::make_rrg(racks, degree, servers, 99)}});

  // Flatten (family, slot, demand) into independent fluid-solve cells.
  struct CellId {
    std::size_t family, slot;
    bool burst;
  };
  std::vector<CellId> cells;
  for (std::size_t fi = 0; fi < families.size(); ++fi)
    for (std::size_t si = 0; si < families[fi].slots.size(); ++si)
      for (const bool burst : {false, true}) cells.push_back({fi, si, burst});

  util::Runner runner(bench::jobs_from(flags));
  const auto results =
      bench::sweep(runner, cells.size(), [&](std::size_t idx) {
        const CellId& c = cells[idx];
        return mean_rate(families[c.family].slots[c.slot],
                         c.burst ? burst_pairs : uniform_pairs,
                         (c.burst ? 13 : 7) + c.slot);
      });

  bench::BenchJson json("dynamic", flags);
  Table t({"fabric", "slots", "uniform mean (Gbps)", "burst mean (Gbps)"});
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    const auto& f = families[fi];
    double uni = 0, burst = 0;
    double wall = 0;
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
      if (cells[idx].family != fi) continue;
      (cells[idx].burst ? burst : uni) += results[idx].value;
      wall += results[idx].wall_s;
    }
    uni /= static_cast<double>(f.slots.size());
    burst /= static_cast<double>(f.slots.size());
    t.add_row({f.name, std::to_string(f.slots.size()),
               Table::fmt(uni / 1e9, 2), Table::fmt(burst / 1e9, 2)});
    bench::BenchJson::Cell jc;
    jc.label = f.name;
    jc.wall_s = wall;
    json.add(std::move(jc));
  }
  std::printf("%s\n", t.to_string().c_str());
  json.write();
  std::printf(
      "Reading: if rotating among DRing relabelings matches rotating\n"
      "expanders at this scale, dynamic fabrics can keep DRing's wiring\n"
      "locality without the performance cost — the §7 question.\n");
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
