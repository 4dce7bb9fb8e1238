// Hybrid packet/fluid co-simulation bench (ISSUE 7 tentpole): writes
// BENCH_hybrid.json with two cell families.
//
//  * Calibration cells — the BENCH_fidelity small cell (6x2 DRing, uniform
//    TM) at three utilizations, each run both hybrid (hot region = two
//    adjacent supernodes) and pure packet. The JSON records the hybrid and
//    packet p50/p99 plus their ratios; the documented envelope (tested by
//    Hybrid.CalibrationWithinDocumentedTolerance) is a 2x ratio band.
//
//  * Scale cells — a 10k-switch DRing (m=2500, n=4) with a skewed rng-tier
//    workload, far past what the pure packet engine finishes in comparable
//    wall-clock, run TWICE: --intra_jobs=1 and --intra_jobs=2. Identical
//    result_hash values in the JSON are the committed evidence that hybrid
//    runs are byte-identical across intra_jobs; the process exits nonzero
//    if they diverge. Cells run through ResumableSweep, so a kill -9
//    mid-cell resumes from the periodic checkpoint with --resume
//    (kill_resume_smoke-style) and must land on the same hash.
//
// --faults switches to the whole-network fault-tolerance sweep (ISSUE 8):
// failed-link fraction x {DRing, RRG} at 10k switches plus a 100k-switch
// DRing cell, each failing a seed-sampled set of links permanently across
// the whole graph — packet region, cut, and fluid external links alike.
// The JSON (default BENCH_hybrid_faults.json; the committed copy lives in
// results/) records per cell the fluid blackhole seconds, stalled flows,
// boundary re-pins, and goodput recovery; the process exits nonzero unless
// every cell accounts for all flows (completed + stalled == flows), sees a
// nonzero fluid blackhole, and the intra_jobs determinism repeat lands on
// the identical result_hash.
//
// Flags: --jobs, --intra_jobs (scale-cell override), --resume, --audit,
// --checkpoint_ms, --json_out, plus --m=2500 to shrink/grow the scale cell
// (--faults adds --m_big=25000 for the 100k-switch cell).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "topo/builders.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/flows.h"
#include "workload/tm.h"

namespace spineless {
namespace {

// The small-cell hybrid configuration the calibration tests pin: hot region
// = supernodes {0,1} (a single DRing supernode has no internal links), fine
// 50us windows so window-granularity loss recovery stays out of the tail.
core::HybridConfig calib_cfg(double utilization) {
  core::HybridConfig cfg;
  cfg.fct.seed = 7;
  cfg.fct.flowgen.offered_load_bps =
      workload::spine_offered_load_bps(6, 2, 10e9, utilization);
  cfg.fct.flowgen.window = units::kMillisecond;
  cfg.fct.drain_factor = 8.0;
  cfg.region_mode = core::RegionMode::kSupernodes;
  cfg.region_supernodes = {0, 1};
  cfg.window = 50 * units::kMicrosecond;
  return cfg;
}

// `count` distinct full-graph links to fault, sampled uniformly from the
// seed and staggered 10us apart from t=1ms so the control plane digests a
// rolling outage, not one synchronized cliff. flap_us == 0 fails each link
// permanently; > 0 restores it that many microseconds after it fell (the
// check.sh recovery smoke uses flaps so post-repair goodput is defined).
std::string sampled_fail_spec(const topo::Graph& g, std::uint64_t seed,
                              int count, long long flap_us) {
  Rng rng(splitmix64(seed ^ 0xFA175EEDULL));
  std::vector<char> picked(static_cast<std::size_t>(g.num_links()), 0);
  std::string spec;
  for (int chosen = 0; chosen < count;) {
    const auto l = static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(g.num_links())));
    if (picked[l]) continue;
    picked[l] = 1;
    if (!spec.empty()) spec += "; ";
    const long long at_us = 1000 + 10 * chosen;
    if (flap_us > 0) {
      spec += "flap link=" + std::to_string(l) +
              " down=" + std::to_string(at_us) +
              "us up=" + std::to_string(at_us + flap_us) + "us";
    } else {
      spec += "fail link=" + std::to_string(l) +
              " at=" + std::to_string(at_us) + "us";
    }
    ++chosen;
  }
  return spec;
}

int run_faults(const Flags& flags) {
  const int tors_per_supernode = static_cast<int>(flags.get_int("n", 4));
  const int servers_per_tor = static_cast<int>(flags.get_int("servers", 2));
  const int net_degree = 4 * tors_per_supernode;
  const int ports = net_degree + servers_per_tor;
  const int m = static_cast<int>(flags.get_int("m", 2500));
  const int m_big = static_cast<int>(flags.get_int("m_big", 25000));
  const Time window = flags.get_int("window_ms", 2) * units::kMillisecond;
  const auto hot_flows = static_cast<int>(flags.get_int("hot_flows", 512));
  const auto bg_flows = static_cast<int>(flags.get_int("bg_flows", 256));
  const std::int64_t bytes = flags.get_int("flow_bytes", 250'000);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const long long flap_us = flags.get_int("flap_ms", 0) * 1000;
  const int intra_repeat = bench::intra_jobs_from(flags) > 1
                               ? bench::intra_jobs_from(flags)
                               : 2;

  // Failed-link fraction x {DRing, RRG} at m, the intra_jobs determinism
  // repeat of cell 0, and the 100k-switch DRing headline cell.
  struct FaultCellSpec {
    bool rrg;
    double fraction;
    int intra;
    int m;
  };
  const std::vector<FaultCellSpec> plan = {
      {false, 0.001, 1, m},         {false, 0.01, 1, m},
      {true, 0.001, 1, m},          {true, 0.01, 1, m},
      {false, 0.001, intra_repeat, m}, {false, 0.001, 1, m_big},
  };

  std::printf("== bench_hybrid --faults: whole-network fault tolerance ==\n");
  std::printf(
      "dring/rrg(n=%d) at %d and %d switches | fail fraction {0.001,0.01} | "
      "%d hot + %d bg flows\n\n",
      tors_per_supernode, m * tors_per_supernode, m_big * tors_per_supernode,
      hot_flows, bg_flows);

  util::Runner runner(bench::outer_jobs(flags));
  const std::string config_sig =
      "hybrid_faults m=" + std::to_string(m) +
      " m_big=" + std::to_string(m_big) + " n=" +
      std::to_string(tors_per_supernode) +
      " servers=" + std::to_string(servers_per_tor) + " hot=" +
      std::to_string(hot_flows) + " bg=" + std::to_string(bg_flows) +
      " bytes=" + std::to_string(bytes) +
      " window=" + std::to_string(static_cast<long long>(window)) +
      " seed=" + std::to_string(seed) + " flap=" + std::to_string(flap_us) +
      " intra=" + std::to_string(intra_repeat);
  bench::ResumableSweep sweep("hybrid_faults", flags, config_sig);
  const auto cells = bench::run_resumable(
      runner, plan.size(), sweep, [&](std::size_t idx, util::CellContext& ctx) {
        const FaultCellSpec& fc = plan[idx];
        core::HybridConfig cfg;
        cfg.fct.seed = seed;
        cfg.fct.flowgen.window = window;
        // Generous drain: stalled flows never finish, so the deadline only
        // needs to cover completion of the survivors after reconvergence.
        cfg.fct.drain_factor = 20.0;
        cfg.fct.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.fct.net.intra_jobs = fc.intra;
        cfg.fct.net.table_jobs = bench::jobs_from(flags);
        cfg.fct.checkpoint = sweep.spec_for(idx, ctx);
        cfg.region_mode = core::RegionMode::kAuto;
        cfg.auto_region_switches = 2 * tors_per_supernode;
        const topo::Graph graph =
            fc.rrg ? topo::make_rrg(
                         fc.m * tors_per_supernode, net_degree,
                         servers_per_tor,
                         /*seed=*/static_cast<std::uint64_t>(fc.m) * 7 + 1)
                   : topo::make_dring(fc.m, tors_per_supernode,
                                      servers_per_tor, ports)
                         .graph;
        const int failed = std::max(
            1, static_cast<int>(fc.fraction *
                                static_cast<double>(graph.num_links())));
        cfg.fault_spec = sampled_fail_spec(graph, seed, failed, flap_us);
        const auto specs = bench::rng_tier_flows(
            graph, seed, 2 * tors_per_supernode, hot_flows, bg_flows, bytes,
            window);
        const auto r = core::run_hybrid_experiment_flows(graph, specs, cfg);
        return bench::hybrid_fault_cell(
            std::string(fc.rrg ? "RRG " : "DRing ") +
                std::to_string(fc.m * tors_per_supernode) +
                "sw f=" + Table::fmt(fc.fraction, 3) +
                " intra=" + std::to_string(fc.intra),
            r, failed);
      });

  bench::BenchJson json("hybrid_faults", flags);
  if (sweep.journal().loaded() > 0) json.mark_resumed();
  Table t({"cell", "failed", "outages", "blackhole (s)", "stalled",
           "repins", "recovery", "completed"});
  for (const auto& c : cells) {
    json.add(c);
    t.add_row({c.label,
               c.status == "ok" ? std::to_string(c.failed_links)
                                : "(" + c.status + ")",
               std::to_string(c.fluid_outages),
               Table::fmt(c.fluid_blackhole_s, 4),
               std::to_string(c.stalled_flows),
               std::to_string(c.boundary_repins),
               Table::fmt(c.goodput_recovery, 2),
               std::to_string(c.completed) + "/" + std::to_string(c.flows)});
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
  sweep.finish(plan.size());

  // Gates: every flow accounted for, faults actually bit, and the
  // intra_jobs repeat is byte-identical to its intra=1 twin.
  int rc = 0;
  for (const auto& c : cells) {
    if (c.status != "ok") continue;
    if (c.completed + c.stalled_flows != c.flows) {
      std::fprintf(stderr,
                   "FAIL: %s lost flows (%zu completed + %zu stalled != "
                   "%zu)\n",
                   c.label.c_str(), c.completed, c.stalled_flows, c.flows);
      rc = 1;
    }
    if (c.fluid_blackhole_s <= 0) {
      std::fprintf(stderr, "FAIL: %s saw no fluid blackhole\n",
                   c.label.c_str());
      rc = 1;
    }
  }
  if (cells[0].status == "ok" && cells[4].status == "ok") {
    if (cells[0].result_hash != cells[4].result_hash) {
      std::fprintf(stderr,
                   "FAIL: fault cell hashes diverge across intra_jobs "
                   "(%llu vs %llu)\n",
                   static_cast<unsigned long long>(cells[0].result_hash),
                   static_cast<unsigned long long>(cells[4].result_hash));
      rc = 1;
    } else {
      std::printf(
          "fault cells byte-identical across intra_jobs (hash %llu)\n",
          static_cast<unsigned long long>(cells[0].result_hash));
    }
  }
  return rc;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  if (flags.get_bool("faults", false)) return run_faults(flags);
  const std::vector<double> utils = {0.2, 0.3, 0.4};
  const int m = static_cast<int>(flags.get_int("m", 2500));
  const int tors_per_supernode = 4;
  const int servers_per_tor = 2;
  const int ports = 4 * tors_per_supernode + servers_per_tor;
  const Time window = flags.get_int("window_ms", 2) * units::kMillisecond;
  const auto hot_flows = static_cast<int>(flags.get_int("hot_flows", 512));
  const auto bg_flows = static_cast<int>(flags.get_int("bg_flows", 256));
  const std::int64_t bytes = flags.get_int("flow_bytes", 250'000);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 3));
  const std::vector<int> scale_intra = {1, bench::intra_jobs_from(flags) > 1
                                               ? bench::intra_jobs_from(flags)
                                               : 2};

  std::printf("== bench_hybrid: packet/fluid co-simulation ==\n");
  std::printf(
      "calibration: dring(6,2,2) x utilization {0.2,0.3,0.4} | scale: "
      "dring(m=%d,n=%d) = %d switches, %d hot + %d bg flows\n\n",
      m, tors_per_supernode, m * tors_per_supernode, hot_flows, bg_flows);

  const std::size_t n_cells = utils.size() + scale_intra.size();
  util::Runner runner(bench::outer_jobs(flags));
  const std::string config_sig =
      "hybrid m=" + std::to_string(m) + " hot=" + std::to_string(hot_flows) +
      " bg=" + std::to_string(bg_flows) + " bytes=" + std::to_string(bytes) +
      " window=" + std::to_string(static_cast<long long>(window)) +
      " seed=" + std::to_string(seed) +
      " intra=" + std::to_string(scale_intra[1]);
  bench::ResumableSweep sweep("hybrid", flags, config_sig);
  const auto cells = bench::run_resumable(
      runner, n_cells, sweep, [&](std::size_t idx, util::CellContext& ctx) {
        if (idx < utils.size()) {
          // Calibration: hybrid vs pure packet on the same cell.
          auto cfg = calib_cfg(utils[idx]);
          cfg.fct.checkpoint = sweep.spec_for(idx, ctx);
          const auto d = topo::make_dring(6, 2, 2);
          const auto tm = workload::RackTm::uniform(d.graph);
          const auto hybrid =
              core::run_hybrid_experiment(d.graph, tm, cfg, &d.supernode_of);
          core::FctConfig pcfg = cfg.fct;
          pcfg.checkpoint = sim::CheckpointSpec{};
          const auto packet = core::run_fct_experiment(d.graph, tm, pcfg);
          auto c = bench::hybrid_cell(
              "calib util=" + Table::fmt(utils[idx], 1), hybrid);
          c.has_calib = true;
          c.packet_p50_ms = packet.median_ms();
          c.packet_p99_ms = packet.p99_ms();
          c.p50_ratio = packet.median_ms() > 0
                            ? hybrid.median_ms() / packet.median_ms()
                            : 0;
          c.p99_ratio =
              packet.p99_ms() > 0 ? hybrid.p99_ms() / packet.p99_ms() : 0;
          return c;
        }
        // Scale: the 10k-switch DRing, once per intra_jobs value.
        const int intra = scale_intra[idx - utils.size()];
        core::HybridConfig cfg;
        cfg.fct.seed = seed;
        cfg.fct.flowgen.window = window;
        cfg.fct.drain_factor = 10.0;
        cfg.fct.net.mode = sim::RoutingMode::kShortestUnion;
        cfg.fct.net.intra_jobs = intra;
        cfg.fct.net.table_jobs = bench::jobs_from(flags);
        cfg.fct.checkpoint = sweep.spec_for(idx, ctx);
        cfg.region_mode = core::RegionMode::kAuto;
        cfg.auto_region_switches = 2 * tors_per_supernode;
        const topo::DRing dring =
            topo::make_dring(m, tors_per_supernode, servers_per_tor, ports);
        const auto specs = bench::rng_tier_flows(
            dring.graph, seed, 2 * tors_per_supernode, hot_flows, bg_flows,
            bytes, window);
        const auto r = core::run_hybrid_experiment_flows(dring.graph, specs, cfg);
        return bench::hybrid_cell("scale " +
                                      std::to_string(m * tors_per_supernode) +
                                      "sw intra=" + std::to_string(intra),
                                  r);
      });

  bench::BenchJson json("hybrid", flags);
  if (sweep.journal().loaded() > 0) json.mark_resumed();
  Table t({"cell", "p50 (ms)", "p99 (ms)", "p50 ratio", "p99 ratio",
           "completed", "pkt events", "solves/skip"});
  for (const auto& c : cells) {
    json.add(c);
    t.add_row({c.label,
               c.status == "ok" ? Table::fmt(c.p50_ms) : "(" + c.status + ")",
               c.status == "ok" ? Table::fmt(c.p99_ms) : "-",
               c.has_calib ? Table::fmt(c.p50_ratio, 2) : "-",
               c.has_calib ? Table::fmt(c.p99_ratio, 2) : "-",
               std::to_string(c.completed) + "/" + std::to_string(c.flows),
               std::to_string(c.events),
               std::to_string(c.fluid_solves) + "/" +
                   std::to_string(c.fluid_solves_skipped)});
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

  // Byte-identity gate: both scale cells must land on the same result_hash.
  const auto& a = cells[utils.size()];
  const auto& b = cells[utils.size() + 1];
  if (a.status == "ok" && b.status == "ok") {
    if (a.result_hash != b.result_hash) {
      std::fprintf(stderr,
                   "FAIL: scale cell hashes diverge across intra_jobs "
                   "(%llu vs %llu)\n",
                   static_cast<unsigned long long>(a.result_hash),
                   static_cast<unsigned long long>(b.result_hash));
      return 1;
    }
    std::printf("scale cells byte-identical across intra_jobs (hash %llu)\n",
                static_cast<unsigned long long>(a.result_hash));
  }
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
