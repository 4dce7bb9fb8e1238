// Figure 6 reproduction (E3 in DESIGN.md): effect of scale. 99th-percentile
// FCT of DRing relative to an equal-equipment RRG under uniform traffic, as
// supernodes are added. Paper config: 6 ToRs per supernode, 60-port
// switches with 36 server links (network degree 24); racks sweep 40 -> 90.
// The default medium config halves the port counts (n=3, 30 ports,
// 18 servers, degree 12) and sweeps racks 15 -> 36.
//
// Expected shape (paper Fig. 6): ratio near (or below) 1 at small scale,
// rising clearly above 1 as racks are added — DRing's O(1) bisection
// cannot keep up while the RRG's grows.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

// --scale=rng: the AWS "RNG: Flat Datacenter Networks at Scale" design
// point — 10k-100k switches, far past what pure packet simulation can
// finish — swept as hybrid packet/fluid cells (auto-selected hot region at
// packet fidelity, fluid max-min elsewhere). One DRing and one
// equal-equipment RRG cell per m, through the same ResumableSweep recovery
// machinery as the packet tiers; --m_hi truncates the sweep (e.g.
// --m_hi=2500 runs only the 10k-switch pair).
int run_rng_tier(const Flags& flags) {
  const int tors_per_supernode = static_cast<int>(flags.get_int("n", 4));
  const int servers_per_tor = static_cast<int>(flags.get_int("servers", 2));
  const int net_degree = 4 * tors_per_supernode;
  const int ports = net_degree + servers_per_tor;
  const int m_hi = static_cast<int>(flags.get_int("m_hi", 25000));
  const std::vector<int> m_all = {2500, 5000, 12500, 25000};
  std::vector<int> ms;
  for (const int m : m_all)
    if (m <= m_hi) ms.push_back(m);
  SPINELESS_CHECK_MSG(!ms.empty(), "--m_hi below the smallest rng cell");

  const int intra_jobs = bench::intra_jobs_from(flags);
  const int jobs = bench::jobs_from(flags);
  const Time window = flags.get_int("window_ms", 2) * units::kMillisecond;
  const auto hot_flows = static_cast<int>(flags.get_int("hot_flows", 512));
  const auto bg_flows = static_cast<int>(flags.get_int("bg_flows", 256));
  const std::int64_t bytes = flags.get_int("flow_bytes", 250'000);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  std::printf("== Figure 6, rng tier: hybrid DRing vs RRG at 10k-100k switches ==\n");
  std::printf(
      "%d ToRs/supernode, %d servers/ToR, degree %d | %d hot + %d bg flows "
      "x %lld B | jobs=%d, intra_jobs=%d\n\n",
      tors_per_supernode, servers_per_tor, net_degree, hot_flows, bg_flows,
      static_cast<long long>(bytes), jobs, intra_jobs);

  util::Runner runner(bench::outer_jobs(flags));
  const std::string config_sig =
      "rng n=" + std::to_string(tors_per_supernode) +
      " servers=" + std::to_string(servers_per_tor) +
      " m_hi=" + std::to_string(m_hi) + " hot=" + std::to_string(hot_flows) +
      " bg=" + std::to_string(bg_flows) + " bytes=" + std::to_string(bytes) +
      " window=" + std::to_string(static_cast<long long>(window)) +
      " seed=" + std::to_string(seed) +
      " intra=" + std::to_string(intra_jobs);
  bench::ResumableSweep sweep("fig6_scale", flags, config_sig);
  const auto n_cells = 2 * ms.size();
  const auto cells = bench::run_resumable(
      runner, n_cells, sweep, [&](std::size_t idx, util::CellContext& ctx) {
        const int m = ms[idx / 2];
        const bool is_rrg = idx % 2 != 0;
        core::HybridConfig cfg;
        cfg.fct.seed = seed;
        cfg.fct.flowgen.window = window;
        cfg.fct.drain_factor = 10.0;
        cfg.fct.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.fct.net.intra_jobs = intra_jobs;
        cfg.fct.net.table_jobs = jobs;  // region tables build in parallel
        cfg.fct.checkpoint = sweep.spec_for(idx, ctx);
        cfg.region_mode = core::RegionMode::kAuto;
        cfg.auto_region_switches = 2 * tors_per_supernode;
        core::HybridResult r;
        if (!is_rrg) {
          const topo::DRing dring = topo::make_dring(
              m, tors_per_supernode, servers_per_tor, ports);
          const auto specs = bench::rng_tier_flows(
              dring.graph, seed, 2 * tors_per_supernode, hot_flows, bg_flows,
              bytes, window);
          r = core::run_hybrid_experiment_flows(dring.graph, specs, cfg);
        } else {
          const topo::Graph rrg = topo::make_rrg(
              m * tors_per_supernode, net_degree, servers_per_tor,
              /*seed=*/static_cast<std::uint64_t>(m) * 7 + 1);
          const auto specs = bench::rng_tier_flows(
              rrg, seed, 2 * tors_per_supernode, hot_flows, bg_flows, bytes,
              window);
          r = core::run_hybrid_experiment_flows(rrg, specs, cfg);
        }
        return bench::hybrid_cell(
            (is_rrg ? "RRG " : "DRing ") +
                std::to_string(m * tors_per_supernode) + "sw",
            r);
      });

  bench::BenchJson json("fig6_scale", flags);
  if (sweep.journal().loaded() > 0) json.mark_resumed();
  // "set-up" is the hybrid's table_build_s: region tables, path sampling,
  // region cut and fault partition; "paths" is its path-sampling part.
  Table t({"switches", "family", "p50 (ms)", "p99 (ms)", "completed",
           "pkt events", "set-up (s)", "paths (s)"});
  for (std::size_t i = 0; i < n_cells; ++i) {
    const auto& c = cells[i];
    json.add(c);
    t.add_row({std::to_string(ms[i / 2] * tors_per_supernode),
               i % 2 != 0 ? "RRG" : "DRing",
               c.status == "ok" ? Table::fmt(c.p50_ms) : "(" + c.status + ")",
               c.status == "ok" ? Table::fmt(c.p99_ms) : "-",
               std::to_string(c.completed) + "/" + std::to_string(c.flows),
               std::to_string(c.events), Table::fmt(c.table_build_s, 2),
               Table::fmt(c.path_sample_s, 3)});
  }
  std::printf("%s", t.to_string().c_str());
  if (bench::interrupted()) {
    json.mark_partial();
    json.write();
    std::fprintf(stderr,
                 "interrupted: journal + checkpoints kept; rerun with "
                 "--resume to finish\n");
    return 130;
  }
  json.write();
  sweep.finish(n_cells);
  return 0;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  if (flags.get("scale", "") == "rng") return run_rng_tier(flags);
  const bool paper = flags.paper_scale();
  // --scale=large: medium-shaped supernodes, but the sweep extends to
  // m=20 (120 racks) — single cells big enough that intra-cell sharding
  // (--intra_jobs) beats adding outer workers.
  const bool large = flags.get("scale", "") == "large";
  const int tors_per_supernode =
      static_cast<int>(flags.get_int("n", paper ? 6 : 3));
  const int servers_per_tor =
      static_cast<int>(flags.get_int("servers", paper ? 36 : 18));
  const int net_degree = 4 * tors_per_supernode;
  const int ports = net_degree + servers_per_tor;
  const int m_lo =
      static_cast<int>(flags.get_int("m_lo", paper ? 7 : (large ? 12 : 5)));
  const int m_hi =
      static_cast<int>(flags.get_int("m_hi", paper ? 15 : (large ? 20 : 15)));
  // Per-host offered load; chosen so the DRing approaches its (constant)
  // bisection limit toward the top of the sweep.
  const double per_host_bps = flags.get_double("per_host_gbps", 3.0) * 1e9;

  const int jobs = bench::jobs_from(flags);
  const int intra_jobs = bench::intra_jobs_from(flags);
  std::printf("== Figure 6: DRing vs RRG, effect of scale ==\n");
  std::printf(
      "%d ToRs/supernode, %d-port switches, %d server links (degree %d), "
      "%.1f Gbps offered per host, scale=%s, jobs=%d, intra_jobs=%d\n\n",
      tors_per_supernode, ports, servers_per_tor, net_degree,
      per_host_bps / 1e9, paper ? "paper" : (large ? "large" : "medium"),
      jobs, intra_jobs);

  const Time window =
      flags.get_int("window_ms", 2) * units::kMillisecond;

  // One cell per (m, topology-family): each cell builds its own graph, so
  // no shared state crosses workers. Cells run under the self-healing
  // policy; with --resume, finished cells come from the sweep journal and
  // in-flight ones restart from their last periodic checkpoint.
  const auto n_m = static_cast<std::size_t>(m_hi - m_lo + 1);
  util::Runner runner(bench::outer_jobs(flags));
  const std::string config_sig =
      "n=" + std::to_string(tors_per_supernode) +
      " servers=" + std::to_string(servers_per_tor) +
      " m_lo=" + std::to_string(m_lo) + " m_hi=" + std::to_string(m_hi) +
      " bps=" + std::to_string(static_cast<long long>(per_host_bps)) +
      " window=" + std::to_string(static_cast<long long>(window)) +
      " intra=" + std::to_string(intra_jobs);
  bench::ResumableSweep sweep("fig6_scale", flags, config_sig);
  const auto cells = bench::run_resumable(
      runner, 2 * n_m, sweep, [&](std::size_t idx, util::CellContext& ctx) {
        const int m = m_lo + static_cast<int>(idx / 2);
        const bool is_rrg = idx % 2 != 0;
        const topo::DRing dring =
            topo::make_dring(m, tors_per_supernode, servers_per_tor, ports);
        core::FctConfig cfg;
        cfg.flowgen.offered_load_bps =
            per_host_bps * dring.graph.total_servers();
        cfg.flowgen.window = window;
        cfg.seed = 3;
        cfg.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.net.intra_jobs = intra_jobs;
        // Large-m cells used to build their tables serially unless the cell
        // itself was sharded; fan the per-destination build over the full
        // --jobs budget instead (identical tables, just faster setup).
        cfg.net.table_jobs = jobs;
        cfg.checkpoint = sweep.spec_for(idx, ctx);
        core::FctResult r;
        if (!is_rrg) {
          r = core::run_fct_experiment(
              dring.graph, workload::RackTm::uniform(dring.graph), cfg);
        } else {
          const topo::Graph rrg =
              topo::make_rrg(dring.graph.num_switches(), net_degree,
                             servers_per_tor,
                             /*seed=*/static_cast<std::uint64_t>(m) * 7 + 1);
          r = core::run_fct_experiment(rrg, workload::RackTm::uniform(rrg),
                                       cfg);
        }
        return bench::fct_cell(
            (is_rrg ? "RRG m=" : "DRing m=") + std::to_string(m), r, r.events);
      });

  bench::BenchJson json("fig6_scale", flags);
  if (sweep.journal().loaded() > 0) json.mark_resumed();
  Table t({"racks", "hosts", "DRing p99 (ms)", "RRG p99 (ms)",
           "FCT(DRing)/FCT(RRG)", "tables (s)"});
  for (std::size_t i = 0; i < n_m; ++i) {
    const int m = m_lo + static_cast<int>(i);
    const topo::DRing dring =
        topo::make_dring(m, tors_per_supernode, servers_per_tor, ports);
    const int racks = dring.graph.num_switches();
    const auto& dr = cells[2 * i];
    const auto& rr = cells[2 * i + 1];
    json.add(dr);
    json.add(rr);
    const bool ok = dr.status == "ok" && rr.status == "ok";
    t.add_row({std::to_string(racks),
               std::to_string(dring.graph.total_servers()),
               dr.status == "ok" ? Table::fmt(dr.p99_ms) : "(" + dr.status + ")",
               rr.status == "ok" ? Table::fmt(rr.p99_ms) : "(" + rr.status + ")",
               ok ? Table::fmt(dr.p99_ms / rr.p99_ms, 2) : "-",
               Table::fmt(dr.table_build_s + rr.table_build_s, 2)});
    std::fprintf(stderr, "  racks=%d done (DRing drops=%ld, RRG drops=%ld)\n",
                 racks, static_cast<long>(dr.drops),
                 static_cast<long>(rr.drops));
  }
  std::printf("%s", t.to_string().c_str());
  if (bench::interrupted()) {
    json.mark_partial();
    json.write();
    std::fprintf(stderr,
                 "interrupted: journal + checkpoints kept; rerun with "
                 "--resume to finish\n");
    return 130;
  }
  json.write();
  sweep.finish(2 * n_m);
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
