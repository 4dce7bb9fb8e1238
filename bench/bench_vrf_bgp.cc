// §4 prototype reproduction (E5/E6 in DESIGN.md): the BGP + VRF realization
// of Shortest-Union(K), standing in for the paper's GNS3 / Cisco-7200
// deployment (DESIGN.md §2). For each topology:
//   * converge the eBGP mesh and report rounds + installed routes,
//   * verify Theorem 1 (VRF distance = max(L, K)) over all pairs,
//   * verify the converged FIBs realize exactly Shortest-Union(K),
//   * check §4's claim of >= n+1 disjoint paths between DRing racks, and
//     report the path-diversity census ECMP vs SU(2).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "ctrl/bgp.h"
#include "routing/disjoint.h"
#include "routing/paths.h"
#include "routing/vrf.h"
#include "util/table.h"

namespace spineless {
namespace {

struct Verification {
  int rounds = 0;
  std::size_t routes = 0;
  bool theorem1 = true;
  bool fib_equals_su = true;
  int min_disjoint = 1 << 30;
  double mean_ecmp_paths = 0;
  double mean_su_paths = 0;
};

Verification verify(const topo::Graph& g, int k, bool check_fib) {
  Verification v;
  ctrl::BgpVrfNetwork bgp(g, k);
  v.rounds = bgp.converge();
  v.routes = bgp.installed_routes();
  const auto table = routing::VrfTable::compute(g, k);

  double ecmp_sum = 0, su_sum = 0;
  std::int64_t pairs = 0;
  for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
    for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
      if (a == b) continue;
      v.theorem1 &= table.theorem1_holds(g, a, b);
      const auto su = routing::shortest_union_paths(g, a, b, k, 4096);
      if (check_fib) v.fib_equals_su &= bgp.fib_paths(a, b, 4096) == su;
      // Exact for K = 2 (the configuration under test); for other K the
      // greedy lower bound is reported.
      v.min_disjoint = std::min(
          v.min_disjoint, k == 2 ? routing::max_disjoint_su2_paths(g, a, b)
                                 : routing::greedy_disjoint_count(su));
      ecmp_sum += static_cast<double>(
          routing::enumerate_shortest_paths(g, a, b, 4096).size());
      su_sum += static_cast<double>(su.size());
      ++pairs;
    }
  }
  v.mean_ecmp_paths = ecmp_sum / static_cast<double>(pairs);
  v.mean_su_paths = su_sum / static_cast<double>(pairs);
  return v;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header(
      "Section 4: Shortest-Union(K) via BGP + VRFs (prototype)", s, flags);

  const int k = static_cast<int>(flags.get_int("k", 2));
  // Full-FIB equivalence on every pair is O(pairs x paths); restrict it to
  // the medium scale unless forced.
  const bool check_fib =
      !flags.paper_scale() || flags.get_bool("check_fib", false);

  struct Case {
    std::string name;
    topo::Graph graph;
    int n_claim;  // the n of the >= n+1 DRing claim; 0 = no claim
  };
  const topo::DRing dring = s.dring();
  const int dring_n =
      s.num_switches() / s.dring_supernodes;  // smallest supernode size
  std::vector<Case> cases;
  cases.push_back({"DRing", dring.graph, dring_n});
  cases.push_back({"RRG (flat)", s.rrg(), 0});
  cases.push_back({"leaf-spine", s.leaf_spine(), 0});

  // One verification cell per topology; each builds its own BGP mesh.
  util::Runner runner(bench::jobs_from(flags));
  const auto results = bench::sweep(runner, cases.size(), [&](std::size_t i) {
    return verify(cases[i].graph, k, check_fib);
  });

  bench::BenchJson json("vrf_bgp", flags);
  Table t({"topology", "BGP rounds", "routes", "Theorem 1",
           "FIB == SU(K)", "min disjoint", "claim >= n+1",
           "mean #paths ECMP", "mean #paths SU(K)"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const Verification& v = results[i].value;
    t.add_row({c.name, std::to_string(v.rounds), std::to_string(v.routes),
               v.theorem1 ? "PASS" : "FAIL",
               check_fib ? (v.fib_equals_su ? "PASS" : "FAIL") : "(skipped)",
               std::to_string(v.min_disjoint),
               c.n_claim > 0
                   ? (v.min_disjoint >= c.n_claim + 1 ? "PASS" : "FAIL")
                   : "-",
               Table::fmt(v.mean_ecmp_paths, 1),
               Table::fmt(v.mean_su_paths, 1)});
    bench::BenchJson::Cell jc;
    jc.label = c.name;
    jc.wall_s = results[i].wall_s;
    json.add(std::move(jc));
  }
  json.write();
  std::printf("K = %d\n%s", k, t.to_string().c_str());
  if (s.dring_supernodes >= 9) {
    std::printf(
        "\nNote: for DRings with m >= 9 supernodes, racks four supernodes\n"
        "apart share exactly one common supernode, so the minimum disjoint\n"
        "SU(2) path count is exactly n (= %d), not the paper's n+1 — the\n"
        "claim as stated holds for m <= 8 (see EXPERIMENTS.md).\n",
        dring_n);
  }
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
