// Extension A3 (DESIGN.md; the paper's §7 "impact of failures"): link
// failures in a flat network under the BGP+VRF scheme. For increasing
// random failure fractions:
//   * BGP reconvergence rounds after the batch of failures,
//   * reachability (host-VRF routes still present),
//   * surviving Shortest-Union path diversity (min/mean FIB paths),
//   * packet-level FCT impact using the post-failure topology,
//   * part 3: scripted FaultPlans (flap / gray / degrade) with in-band
//     BFD-style detection and graceful-degradation metrics.
#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_common.h"
#include "core/fct_experiment.h"
#include "ctrl/bgp.h"
#include "fault/degradation.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/sharded_engine.h"
#include "sim/tcp.h"
#include "util/table.h"
#include "workload/flows.h"

namespace spineless {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  bench::install_signal_handlers();
  const core::Scenario s = bench::scenario_from(flags);
  bench::print_header("Extension: impact of link failures (DRing + BGP/VRF)",
                      s, flags);

  const topo::DRing dring = s.dring();
  const topo::Graph& g = dring.graph;
  const double base_load =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);

  util::Runner runner(bench::outer_jobs(flags));
  bench::BenchJson json("failures", flags);

  // Each failure fraction is one independent cell: the random link sample,
  // BGP mesh, FIB census, and degraded-topology FCT all derive from the
  // fraction and scenario seed alone.
  const std::vector<double> fracs = {0.0, 0.02, 0.05, 0.10, 0.20};
  struct FailCell {
    std::size_t n_fail = 0;
    int rounds = 0;
    bool bgp_converged = true;
    std::int64_t reachable = 0, total_pairs = 0;
    double mean_paths = 0;
    int min_paths = 0;
    bool partitioned = false;
    double p99 = 0;
  };
  const auto frac_cells =
      bench::sweep(runner, fracs.size(), [&](std::size_t idx) {
        const double frac = fracs[idx];
        FailCell out;
        out.n_fail = static_cast<std::size_t>(
            frac * static_cast<double>(g.num_links()));
        Rng rng(s.seed + 77);
        std::set<topo::LinkId> dead;
        for (std::size_t i : rng.sample_without_replacement(
                 static_cast<std::size_t>(g.num_links()), out.n_fail))
          dead.insert(static_cast<topo::LinkId>(i));

        // Control plane: fail on the live BGP mesh and reconverge.
        ctrl::BgpVrfNetwork bgp(g, 2);
        bgp.converge();
        for (topo::LinkId l : dead) bgp.fail_link(l);
        // Flag form: a pathological batch reports non-convergence in the
        // table instead of killing the whole bench.
        out.rounds =
            out.n_fail == 0 ? 0 : bgp.converge(10'000, &out.bgp_converged);

        std::int64_t path_sum = 0;
        int min_paths = 1 << 30;
        for (topo::NodeId a = 0; a < g.num_switches(); ++a) {
          for (topo::NodeId b = 0; b < g.num_switches(); ++b) {
            if (a == b) continue;
            ++out.total_pairs;
            if (!bgp.reachable(a, b)) continue;
            ++out.reachable;
            const auto paths = bgp.fib_paths(a, b, 512);
            path_sum += static_cast<std::int64_t>(paths.size());
            min_paths = std::min(min_paths, static_cast<int>(paths.size()));
          }
        }
        out.min_paths = out.reachable ? min_paths : 0;
        out.mean_paths = out.reachable
                             ? static_cast<double>(path_sum) /
                                   static_cast<double>(out.reachable)
                             : 0.0;

        // Data plane on the degraded topology (if it stays connected).
        const topo::Graph degraded = topo::subgraph_without_links(
            g, std::vector<topo::LinkId>(dead.begin(), dead.end()));
        if (degraded.connected()) {
          core::FctConfig cfg;
          cfg.net.intra_jobs = bench::intra_jobs_from(flags);
          cfg.net.mode = sim::RoutingMode::kShortestUnion;
          cfg.flowgen.window = 2 * units::kMillisecond;
          cfg.flowgen.offered_load_bps = base_load;
          cfg.seed = s.seed + 13;
          out.p99 = core::run_fct_experiment(
                        degraded, workload::RackTm::uniform(degraded), cfg)
                        .p99_ms();
        } else {
          out.partitioned = true;
        }
        return out;
      });

  Table t({"failed links", "fraction", "BGP rounds", "reachable pairs",
           "min FIB paths", "mean FIB paths", "uniform p99 (ms)"});
  for (std::size_t i = 0; i < fracs.size(); ++i) {
    const FailCell& c = frac_cells[i].value;
    t.add_row({std::to_string(c.n_fail), Table::fmt(fracs[i], 2),
               c.bgp_converged ? std::to_string(c.rounds)
                               : "(not converged)",
               Table::fmt(100.0 * static_cast<double>(c.reachable) /
                              static_cast<double>(c.total_pairs),
                          1) +
                   "%",
               std::to_string(c.min_paths), Table::fmt(c.mean_paths, 1),
               c.partitioned ? "(partitioned)" : Table::fmt(c.p99)});
    std::fprintf(stderr, "  frac=%.2f done\n", fracs[i]);
    bench::BenchJson::Cell jc;
    jc.label = "frac=" + Table::fmt(fracs[i], 2);
    jc.wall_s = frac_cells[i].wall_s;
    json.add(std::move(jc));
  }
  std::printf("%s\n", t.to_string().c_str());
  if (bench::interrupted()) {
    json.mark_partial();
    json.write();
    return 130;
  }

  // Part 2: the convergence window at the data plane. A busy fabric loses
  // 2% of its links mid-experiment; the table sweeps how long the control
  // plane takes to install the post-failure routes (packets offered to
  // dead links blackhole until then).
  std::printf("Convergence-window sweep (2%% of links fail at t=0.5ms):\n");
  Table w({"reconvergence delay", "p50 (ms)", "p99 (ms)", "completed",
           "blackhole drops", "no-route drops"});
  const auto n_fail =
      static_cast<std::size_t>(0.02 * static_cast<double>(g.num_links()));
  const std::vector<Time> delays = {Time{0}, 100 * units::kMicrosecond,
                                    units::kMillisecond,
                                    10 * units::kMillisecond};
  struct WindowCell {
    double p50 = 0, p99 = 0;
    std::size_t completed = 0, flows = 0;
    std::int64_t queue_drops = 0, no_route_drops = 0;
  };
  const auto window_cells =
      bench::sweep(runner, delays.size(), [&](std::size_t idx) {
        const Time delay = delays[idx];
        Rng rng(s.seed + 78);
        workload::TmSampler sampler(g, workload::RackTm::uniform(g));
        workload::FlowGenConfig fg;
        fg.offered_load_bps = base_load;
        fg.window = 2 * units::kMillisecond;
        const auto flows = workload::generate_flows(sampler, fg, rng);

        sim::NetworkConfig net_cfg;
        net_cfg.mode = sim::RoutingMode::kShortestUnion;
        sim::Simulator simulator;
        sim::Network net(g, net_cfg);
        sim::FlowDriver driver(net, sim::TcpConfig{});
        for (const auto& f : flows)
          driver.add_flow(simulator, f.src, f.dst, f.bytes, f.start);
        for (std::size_t i : rng.sample_without_replacement(
                 static_cast<std::size_t>(g.num_links()), n_fail)) {
          net.schedule_link_failure(simulator,
                                    static_cast<topo::LinkId>(i),
                                    units::kMillisecond / 2, delay);
        }
        simulator.run_until(fg.window * 50);
        const auto fct = driver.fct_ms();
        return WindowCell{
            fct.median(),
            fct.p99(),
            driver.completed_flows(),
            driver.num_flows(),
            static_cast<std::int64_t>(net.stats().queue_drops),
            static_cast<std::int64_t>(net.stats().no_route_drops)};
      });

  for (std::size_t i = 0; i < delays.size(); ++i) {
    const WindowCell& c = window_cells[i].value;
    w.add_row({Table::fmt(units::to_millis(delays[i]), 1) + " ms",
               Table::fmt(c.p50), Table::fmt(c.p99),
               std::to_string(c.completed) + "/" + std::to_string(c.flows),
               std::to_string(c.queue_drops),
               std::to_string(c.no_route_drops)});
    std::fprintf(stderr, "  delay=%.1fms done\n",
                 units::to_millis(delays[i]));
    bench::BenchJson::Cell jc;
    jc.label = "delay=" + Table::fmt(units::to_millis(delays[i]), 1) + "ms";
    jc.wall_s = window_cells[i].wall_s;
    json.add(std::move(jc));
  }
  std::printf("%s", w.to_string().c_str());
  if (bench::interrupted()) {
    json.mark_partial();
    json.write();
    return 130;
  }

  // Part 3: scripted fault scenarios with *in-band* detection. Unlike
  // part 2's oracle (the control plane learns of the failure instantly and
  // only the route-install delay varies), here BFD-style hellos must
  // notice the fault: the measured outage = detection delay + incremental
  // reconvergence, gray links that pass hellos are never detected, and the
  // DegradationMonitor reports how gracefully goodput degrades/recovers.
  std::printf("\nFaultPlan scenarios (in-band BFD detection):\n");
  struct Scenario {
    const char* label;
    const char* spec;
  };
  const std::vector<Scenario> scenarios = {
      {"flap", "flap link=0 down=5ms up=10ms"},
      {"gray 1% drop", "gray link=0 drop=0.01 from=5ms until=15ms"},
      {"gray blackhole", "gray link=0 drop=1.0 from=5ms until=15ms"},
      {"corrupting link", "gray link=0 drop=0 corrupt=0.05 from=5ms until=15ms"},
      {"degraded port", "degrade link=0 rate=0.25 from=5ms until=15ms"},
      {"switch flap", "switch node=0 down=5ms up=10ms"},
  };
  const Time horizon = 35 * units::kMillisecond;
  // Part-3 cells run under the crash-safe machinery: each (Network,
  // FlowDriver, FaultInjector, DegradationMonitor) quartet checkpoints
  // through a CheckpointSession (parts registered in construction order),
  // advancing in segments that poll the watchdog/SIGINT hooks.
  bench::ResumableSweep sweep("failures", flags,
                              bench::base_config_sig(flags));
  const auto fault_cells = bench::run_resumable(
      runner, scenarios.size(), sweep,
      [&](std::size_t idx, util::CellContext& ctx) {
        Rng rng(s.seed + 79);
        workload::TmSampler sampler(g, workload::RackTm::uniform(g));
        workload::FlowGenConfig fg;
        fg.offered_load_bps = base_load;
        fg.window = 30 * units::kMillisecond;
        const auto flows = workload::generate_flows(sampler, fg, rng);

        sim::NetworkConfig net_cfg;
        net_cfg.mode = sim::RoutingMode::kShortestUnion;
        net_cfg.intra_jobs = bench::intra_jobs_from(flags);
        sim::Network net(g, net_cfg);
        sim::FlowDriver driver(net, sim::TcpConfig{});
        const auto plan =
            fault::FaultPlan::parse(scenarios[idx].spec, g, s.seed + idx);
        // Hellos share the data queues, so a congested port can eat them;
        // a conservative detect multiplier keeps transient bursts from
        // tripping sessions on healthy links.
        fault::FaultInjectorConfig inj_cfg;
        inj_cfg.hold_count = 5;
        fault::FaultInjector inj(net, plan, inj_cfg);
        fault::DegradationMonitor mon(net, 250 * units::kMicrosecond);

        sim::HashChain hash;
        hash.mix(s.seed)
            .mix(static_cast<std::uint64_t>(g.num_switches()))
            .mix(static_cast<std::uint64_t>(g.num_links()))
            .mix(static_cast<std::uint64_t>(idx))
            .mix(static_cast<std::uint64_t>(net_cfg.intra_jobs))
            .mix(static_cast<std::uint64_t>(horizon));
        sim::CheckpointSession session(net, hash.value());
        session.add(&driver);
        session.add(&inj);
        session.add(&mon);
        const sim::CheckpointSpec spec = sweep.spec_for(idx, ctx);

        // Advances boundary to boundary, snapshotting between segments;
        // a resumed cell restores first, discarding the state built here.
        const Time step =
            spec.interval > 0 ? spec.interval : std::max<Time>(1, horizon / 64);

        bench::BenchJson::Cell out;
        out.label = scenarios[idx].label;
        out.intra_jobs = net_cfg.intra_jobs;
        out.has_fault = true;
        sim::with_engine(net, [&](auto& eng, sim::Simulator& control) {
          for (const auto& f : flows)
            driver.add_flow(control, f.src, f.dst, f.bytes, f.start);
          inj.arm(control, horizon);
          mon.start(control, 0, 30 * units::kMillisecond);
          sim::run_segments(eng, &session, spec, horizon, step);
          out.events = eng.events_processed();
        });

        const auto rep = inj.report(horizon);
        out.blackhole_s = rep.blackhole_seconds;
        out.undetected_gray_windows = rep.undetected_gray_windows;
        out.fault_outages = rep.outages.size();
        // Characterize the cell by the fault-relevant outage: a physical
        // one if the plan caused any, else a detection on the faulted link
        // (gray scenarios). Congestion false alarms on other links are
        // only counted.
        const fault::FaultInjector::Outage* picked = nullptr;
        for (const auto& o : rep.outages) {
          if (o.t_down >= 0 && o.t_detected >= 0) {
            picked = &o;
            break;
          }
        }
        if (picked == nullptr) {
          for (const auto& o : rep.outages) {
            if (o.link == 0 && o.t_detected >= 0) {
              picked = &o;
              break;
            }
          }
        }
        if (picked != nullptr) {
          const Time base =
              picked->t_down >= 0 ? picked->t_down : picked->t_detected;
          out.detect_ms = units::to_millis(picked->t_detected - base);
          if (picked->t_routed_out >= 0)
            out.outage_ms = units::to_millis(picked->t_routed_out - base);
        }
        const auto stats = net.stats();
        out.blackhole_drops = stats.blackhole_drops;
        out.gray_drops = stats.gray_drops;
        out.corrupt_drops = stats.corrupt_drops;
        out.rescued_flows =
            fault::DegradationMonitor::flows_rescued_by_rto(driver);
        out.fault_completed = driver.completed_flows();
        out.fault_flows = driver.num_flows();
        // Pre window starts after the arrival ramp so the ratio compares
        // steady states.
        const double pre = mon.mean_goodput_bps(2 * units::kMillisecond,
                                                5 * units::kMillisecond);
        const double post = mon.mean_goodput_bps(20 * units::kMillisecond,
                                                 30 * units::kMillisecond);
        out.goodput_recovery = pre > 0 ? post / pre : 0.0;
        return out;
      });

  Table ft({"scenario", "blackhole (s)", "detect (ms)", "outage (ms)",
            "ctrl outages", "blackholed", "gray", "corrupt", "RTO-rescued",
            "completed", "goodput post/pre"});
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const bench::BenchJson::Cell& c = fault_cells[i];
    if (c.status != "ok") {
      ft.add_row({scenarios[i].label, "(" + c.status + ")", "-", "-", "-",
                  "-", "-", "-", "-", "-", "-"});
    } else {
      ft.add_row(
          {scenarios[i].label, Table::fmt(c.blackhole_s, 6),
           c.detect_ms < 0 ? "(undetected)" : Table::fmt(c.detect_ms, 2),
           c.outage_ms < 0 ? "-" : Table::fmt(c.outage_ms, 2),
           std::to_string(c.fault_outages),
           std::to_string(c.blackhole_drops), std::to_string(c.gray_drops),
           std::to_string(c.corrupt_drops),
           std::to_string(c.rescued_flows),
           std::to_string(c.fault_completed) + "/" +
               std::to_string(c.fault_flows),
           Table::fmt(c.goodput_recovery, 3)});
    }
    std::fprintf(stderr, "  %s done\n", scenarios[i].label);
    json.add(c);
  }
  std::printf("%s", ft.to_string().c_str());
  if (sweep.journal().loaded() > 0) json.mark_resumed();
  if (bench::interrupted()) {
    json.mark_partial();
    json.write();
    std::fprintf(stderr,
                 "interrupted: journal + checkpoints kept; rerun with "
                 "--resume to finish\n");
    return 130;
  }
  json.write();
  sweep.finish(scenarios.size());
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
