// B1 (DESIGN.md): the §2 comparison the paper argues from — prior expander
// work leans on mechanisms that are "a non-starter for enterprises":
// k-shortest-path source routing with MPTCP (Jellyfish/Xpander), VLB, and
// flowlet switching (Kassing et al.). This bench runs them all on the same
// DRing and workloads next to the deployable schemes (ECMP, SU(2)), so the
// claim "SU(2) gets comparable performance from stock BGP/ECMP/VRF
// features" is measurable.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "routing/ksp.h"
#include "routing/vlb.h"
#include "sim/striping.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

using topo::Graph;
using topo::NodeId;

struct RunResult {
  double p50 = 0;
  double p99 = 0;
  std::size_t flows = 0;
  std::size_t completed = 0;
};

// Per-ToR-pair path cache for the source-routed schemes.
class PathCache {
 public:
  PathCache(const Graph& g, bool vlb, std::size_t k, std::uint64_t seed)
      : g_(g), vlb_(vlb), k_(k), seed_(seed) {}

  const routing::PathSet& get(NodeId a, NodeId b) {
    auto it = cache_.find({a, b});
    if (it != cache_.end()) return it->second;
    routing::PathSet paths =
        vlb_ ? routing::vlb_paths(g_, a, b, k_, seed_ ^ splitmix64(
                                                          static_cast<std::uint64_t>(a) << 20 | static_cast<std::uint64_t>(b)))
             : routing::yen_ksp(g_, a, b, k_);
    return cache_.emplace(std::make_pair(a, b), std::move(paths))
        .first->second;
  }

 private:
  const Graph& g_;
  bool vlb_;
  std::size_t k_;
  std::uint64_t seed_;
  std::map<std::pair<NodeId, NodeId>, routing::PathSet> cache_;
};

std::vector<workload::FlowSpec> make_flows(const Graph& g,
                                           const workload::RackTm& tm,
                                           double offered_bps, Time window,
                                           std::uint64_t seed) {
  Rng rng(seed);
  workload::TmSampler sampler(g, tm);
  workload::FlowGenConfig fg;
  fg.offered_load_bps = offered_bps;
  fg.window = window;
  return workload::generate_flows(sampler, fg, rng);
}

// Hashed modes (ECMP / SU2, optionally with flowlets).
RunResult run_hashed(const Graph& g,
                     const std::vector<workload::FlowSpec>& flows,
                     sim::RoutingMode mode, Time flowlet_gap, Time window) {
  sim::NetworkConfig cfg;
  cfg.mode = mode;
  cfg.flowlet_gap = flowlet_gap;
  sim::Simulator simulator;
  sim::Network net(g, cfg);
  sim::FlowDriver driver(net, sim::TcpConfig{});
  for (const auto& f : flows)
    driver.add_flow(simulator, f.src, f.dst, f.bytes, f.start);
  simulator.run_until(window * 20);
  const auto s = driver.fct_ms();
  return {s.median(), s.p99(), driver.num_flows(), driver.completed_flows()};
}

// MPTCP-over-KSP: stripe each flow over up to `subflows` k-shortest paths.
RunResult run_mptcp(const Graph& g,
                    const std::vector<workload::FlowSpec>& flows,
                    int subflows, Time window) {
  sim::NetworkConfig cfg;
  cfg.mode = sim::RoutingMode::kSourceRouted;
  sim::Simulator simulator;
  sim::Network net(g, cfg);
  sim::StripedFlowDriver driver(net, sim::TcpConfig{});
  PathCache cache(g, /*vlb=*/false, static_cast<std::size_t>(subflows), 0);
  for (const auto& f : flows) {
    const NodeId a = g.tor_of_host(f.src);
    const NodeId b = g.tor_of_host(f.dst);
    driver.add_flow(simulator, f.src, f.dst, f.bytes, f.start, cache.get(a, b),
                    subflows);
  }
  simulator.run_until(window * 20);
  const auto s = driver.fct_ms();
  return {s.median(), s.p99(), driver.num_flows(), driver.completed_flows()};
}

// VLB: every flow pinned to one random Valiant path.
RunResult run_vlb(const Graph& g,
                  const std::vector<workload::FlowSpec>& flows,
                  Time window, std::uint64_t seed) {
  sim::NetworkConfig cfg;
  cfg.mode = sim::RoutingMode::kSourceRouted;
  sim::Simulator simulator;
  sim::Network net(g, cfg);
  sim::FlowDriver driver(net, sim::TcpConfig{});
  PathCache cache(g, /*vlb=*/true, /*k=*/16, seed);
  Rng rng(seed);
  for (const auto& f : flows) {
    const NodeId a = g.tor_of_host(f.src);
    const NodeId b = g.tor_of_host(f.dst);
    const auto& paths = cache.get(a, b);
    const auto id = driver.add_flow(simulator, f.src, f.dst, f.bytes, f.start);
    net.set_flow_routes(id, paths[rng.uniform(paths.size())]);
  }
  simulator.run_until(window * 20);
  const auto s = driver.fct_ms();
  return {s.median(), s.p99(), driver.num_flows(), driver.completed_flows()};
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header(
      "Baselines: deployable vs non-standard routing on the DRing", s,
      flags);

  const topo::DRing dring = s.dring();
  const Graph& g = dring.graph;
  const Time window = 2 * units::kMillisecond;
  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);
  const Time gap = 100 * units::kMicrosecond;

  struct TmCase {
    std::string name;
    workload::RackTm tm;
  };
  std::vector<TmCase> tms;
  tms.push_back(
      {"adjacent R2R",
       workload::RackTm::rack_to_rack(g, 0, g.neighbors(0)[0].neighbor)});
  tms.push_back({"FB skewed", workload::RackTm::fb_like_skewed(g, s.seed)});

  // Each TM's flow list is generated once and shared by all five schemes
  // (the paired-comparison design); the (TM, scheme) grid then fans out
  // over the runner. Every scheme builds its own Network, so cells share
  // only immutable state.
  std::vector<std::vector<workload::FlowSpec>> flows_by_tm;
  for (const auto& c : tms) {
    const double load =
        base_load * workload::participating_fraction(g, c.tm);
    flows_by_tm.push_back(make_flows(g, c.tm, load, window, s.seed + 42));
  }

  struct Scheme {
    const char* name;
    const char* hw;
  };
  const std::vector<Scheme> schemes = {
      {"ECMP", "stock"},
      {"Shortest-Union(2)", "stock (BGP+ECMP+VRF)"},
      {"SU(2) + flowlets", "flowlet detection"},
      {"KSP-8 + MPTCP", "MPTCP hosts + source routing"},
      {"VLB", "source routing"},
  };

  util::Runner runner(bench::jobs_from(flags));
  const auto results = bench::sweep(
      runner, tms.size() * schemes.size(), [&](std::size_t idx) {
        const std::size_t ti = idx / schemes.size();
        const auto& flows = flows_by_tm[ti];
        switch (idx % schemes.size()) {
          case 0:
            return run_hashed(g, flows, sim::RoutingMode::kEcmp, 0, window);
          case 1:
            return run_hashed(g, flows, sim::RoutingMode::kShortestUnion, 0,
                              window);
          case 2:
            return run_hashed(g, flows, sim::RoutingMode::kShortestUnion,
                              gap, window);
          case 3:
            return run_mptcp(g, flows, 8, window);
          default:
            return run_vlb(g, flows, window, s.seed + 7);
        }
      });

  bench::BenchJson json("baselines", flags);
  for (std::size_t ti = 0; ti < tms.size(); ++ti) {
    const auto& c = tms[ti];
    Table t({"scheme", "hardware needed", "p50 (ms)", "p99 (ms)", "done"});
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      const auto& cell = results[ti * schemes.size() + si];
      const RunResult& r = cell.value;
      t.add_row({schemes[si].name, schemes[si].hw, Table::fmt(r.p50),
                 Table::fmt(r.p99),
                 std::to_string(r.completed) + "/" +
                     std::to_string(r.flows)});
      std::fprintf(stderr, "  [%s | %s] done\n", c.name.c_str(),
                   schemes[si].name);
      bench::BenchJson::Cell jc;
      jc.label = c.name + " | " + schemes[si].name;
      jc.wall_s = cell.wall_s;
      jc.has_fct = true;
      jc.flows = r.flows;
      jc.completed = r.completed;
      jc.p50_ms = r.p50;
      jc.p99_ms = r.p99;
      json.add(std::move(jc));
    }
    std::printf("%s\n%s\n", c.name.c_str(), t.to_string().c_str());
  }
  json.write();
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
