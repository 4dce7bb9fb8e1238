// M1 (DESIGN.md): google-benchmark micro benchmarks for the hot paths —
// routing-table computation, path enumeration, BGP convergence, max-min
// water-filling, and raw packet-simulator event throughput.
//
// `bench_micro --json=PATH` bypasses google-benchmark and runs the
// simulator event-throughput scenario once, writing a machine-readable
// summary (events/sec, ns/event, peak RSS) — the tier-1 smoke target and
// the number the performance roadmap tracks — plus the best-of-3 build
// time of the 20k-switch RRG (`rrg20k_build_s`). `--intra_jobs=N` runs the
// same scenario on the sharded reactor engine (byte-identical event
// stream; the events/s delta is the engine's parallel overhead) and adds
// the engine's self-metrics to the JSON cell; serial output is unchanged.
// A sharded run also alternates serial and N-shard passes of the scenario
// in this one process and adds the best pass of each to the JSON (the CI
// perf smoke's overhead gate reads them).
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>

#include "ctrl/bgp.h"
#include "event_throughput.h"
#include "flowsim/maxmin.h"
#include "routing/paths.h"
#include "routing/vrf.h"
#include "topo/builders.h"
#include "util/json.h"
#include "util/rng.h"

namespace spineless {
namespace {

// The ECMP table: K = 1, by size.
void BM_VrfTableK1Compute(benchmark::State& state) {
  const auto d = topo::make_dring(static_cast<int>(state.range(0)), 4, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::VrfTable::compute(d.graph, 1));
  }
  state.SetLabel(std::to_string(d.graph.num_switches()) + " switches");
}
BENCHMARK(BM_VrfTableK1Compute)->Arg(5)->Arg(10)->Arg(20);

void BM_VrfTableCompute(benchmark::State& state) {
  const auto d = topo::make_dring(10, 4, 8);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::VrfTable::compute(d.graph, k));
  }
}
BENCHMARK(BM_VrfTableCompute)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_ShortestUnionEnumeration(benchmark::State& state) {
  const auto d = topo::make_dring(10, 4, 8);
  const topo::Graph& g = d.graph;
  for (auto _ : state) {
    for (topo::NodeId b = 1; b < 20; ++b) {
      benchmark::DoNotOptimize(
          routing::shortest_union_paths(g, 0, b, 2, 4096));
    }
  }
}
BENCHMARK(BM_ShortestUnionEnumeration);

void BM_BgpConvergence(benchmark::State& state) {
  const auto d = topo::make_dring(static_cast<int>(state.range(0)), 2, 4);
  for (auto _ : state) {
    ctrl::BgpVrfNetwork bgp(d.graph, 2);
    benchmark::DoNotOptimize(bgp.converge());
  }
  state.SetLabel(std::to_string(d.graph.num_switches()) + " routers");
}
BENCHMARK(BM_BgpConvergence)->Arg(5)->Arg(8)->Arg(12);

void BM_MaxMinWaterFill(benchmark::State& state) {
  Rng rng(1);
  const int resources = 500;
  std::vector<double> caps(resources, 10e9);
  flowsim::MaxMinProblem problem(caps);
  for (int f = 0; f < static_cast<int>(state.range(0)); ++f) {
    std::vector<int> route;
    for (int h = 0; h < 4; ++h)
      route.push_back(static_cast<int>(rng.uniform(resources)));
    problem.add_flow(std::move(route));
  }
  std::vector<int> ids(static_cast<std::size_t>(problem.num_flows()));
  std::iota(ids.begin(), ids.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.solve(ids));
  }
}
BENCHMARK(BM_MaxMinWaterFill)->Arg(1000)->Arg(5000);

// End-to-end simulator throughput: events/sec driving TCP flows across a
// DRing. The counter is the figure of merit.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(bench::run_event_throughput(1).events),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_SimulatorEventThroughput);

// One overhead pass: back-to-back runs of the scenario until their event
// loops have taken kPassSeconds, as events/s over the whole pass. A single
// ~10 ms run is short enough for one descheduling to swing it by 30%.
constexpr int kOverheadPasses = 7;
constexpr double kPassSeconds = 0.1;

double pass_events_per_sec(int intra_jobs) {
  std::uint64_t events = 0;
  double wall_s = 0;
  while (wall_s < kPassSeconds) {
    const bench::EventThroughput r = bench::run_event_throughput(intra_jobs);
    events += r.events;
    wall_s += r.wall_s;
  }
  return static_cast<double>(events) / wall_s;
}

// The serial engine against the sharded one: kOverheadPasses passes each,
// alternating, so a slow spell on a shared host slows both engines alike;
// the best pass of each is kept.
struct Overhead {
  double serial_eps = 0;
  double sharded_eps = 0;
};

Overhead measure_overhead(int jobs) {
  bench::run_event_throughput(1);  // warm-up
  bench::run_event_throughput(jobs);
  Overhead o;
  for (int pass = 0; pass < kOverheadPasses; ++pass) {
    o.serial_eps = std::max(o.serial_eps, pass_events_per_sec(1));
    o.sharded_eps = std::max(o.sharded_eps, pass_events_per_sec(jobs));
  }
  return o;
}

// The BM_SimulatorEventThroughput scenario, run outside the
// google-benchmark harness so the smoke target stays fast and emits one
// unambiguous number per metric (the best of kTimedRuns after a warm-up).
int run_json_smoke(const std::string& path, int intra_jobs) {
  constexpr int kTimedRuns = 3;
  const bench::EventThroughput best =
      bench::best_event_throughput(intra_jobs, kTimedRuns);
  const double events_per_sec = best.events_per_sec();
  const double ns_per_event =
      best.events > 0 ? best.wall_s * 1e9 / static_cast<double>(best.events)
                      : 0;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);  // ru_maxrss is in KiB on Linux

  // Graph construction of the fig6 rng-tier 20k-switch RRG, measured after
  // the RSS sample so peak_rss_kib keeps describing the simulator scenario.
  double rrg_build_s = 0;
  for (int run = 0; run < kTimedRuns; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    const topo::Graph g = topo::make_rrg(20'000, 16, 2, 35001);
    const double build_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    benchmark::DoNotOptimize(g.num_links());
    if (run == 0 || build_s < rrg_build_s) rrg_build_s = build_s;
  }
  const Overhead overhead =
      intra_jobs > 1 ? measure_overhead(intra_jobs) : Overhead{};

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "micro");
  w.kv("scenario", bench::kEventThroughputScenario);
  w.kv("events", best.events);
  w.kv("wall_s", best.wall_s);
  w.kv("events_per_sec", events_per_sec);
  w.kv("ns_per_event", ns_per_event);
  w.kv("peak_rss_kib", static_cast<std::int64_t>(ru.ru_maxrss));
  w.kv("completed_flows", best.completed);
  w.kv("timed_runs", kTimedRuns);
  w.kv("rrg20k_build_s", rrg_build_s);
  if (intra_jobs > 1) {
    // Engine self-metrics and the overhead passes (sharded runs only, so
    // serial JSON is stable).
    w.kv("intra_jobs", intra_jobs);
    w.kv("engine_windows", best.metrics.windows);
    w.kv("engine_ring_handoffs", best.metrics.ring_handoffs);
    w.kv("engine_max_ring_occupancy", best.metrics.max_ring_occupancy);
    w.kv("engine_spin_waits", best.metrics.spin_waits);
    w.kv("engine_central_plans", best.metrics.central_plans);
    w.kv("overhead_passes", kOverheadPasses);
    w.kv("overhead_serial_events_per_sec", overhead.serial_eps);
    w.kv("overhead_sharded_events_per_sec", overhead.sharded_eps);
  }
  w.end_object();
  if (!write_json_file(path, w)) {
    std::fprintf(stderr, "bench_micro: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%zu events in %.3f s (%.2fM events/s, %.1f ns/event, "
              "peak RSS %ld KiB); 20k-switch RRG built in %.3f s; wrote %s\n",
              static_cast<std::size_t>(best.events), best.wall_s,
              events_per_sec / 1e6, ns_per_event,
              static_cast<long>(ru.ru_maxrss), rrg_build_s, path.c_str());
  if (intra_jobs > 1)
    std::printf("best of %d alternating passes: serial %.2fM events/s, "
                "intra_jobs=%d %.2fM events/s\n",
                kOverheadPasses, overhead.serial_eps / 1e6, intra_jobs,
                overhead.sharded_eps / 1e6);
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  int intra_jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--intra_jobs=", 13) == 0)
      intra_jobs = std::atoi(argv[i] + 13);
  }
  if (json_path != nullptr)
    return spineless::run_json_smoke(json_path, intra_jobs);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
