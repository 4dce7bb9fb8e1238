// Reactor-engine scaling sweep: events/s of the bench_micro scenario per
// shard count, written to BENCH_scaling.json.
//
// On this repo's reference container (1 CPU) every shard count runs
// cooperatively on one core, so the interesting number is *overhead*:
// events/s relative to serial must stay near 1.0 (the ROADMAP gate is
// <= 5% at intra_jobs=2). On a multi-core host the engine backs shards
// with real reactor threads and the figure of merit becomes *efficiency*
// = speedup / cores_used; the JSON reports it only when real cores back
// the shards (cores_used > 1), because "efficiency" of a cooperative
// single-core run is a category error. Target on >= 4 real cores:
// >= 3x speedup at 4 shards (documented here, CI-checked where hardware
// allows).
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "event_throughput.h"
#include "util/json.h"

namespace spineless {
namespace {

int run(const std::string& path, bool pin_reactors) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const int hw = hw_raw == 0 ? 1 : static_cast<int>(hw_raw);
  std::vector<bench::EventThroughput> cells;
  for (int intra : {1, 2, 4, 7})
    cells.push_back(
        bench::best_event_throughput(intra, /*timed_runs=*/3, pin_reactors));
  const double serial_rate = cells.front().events_per_sec();

  JsonWriter w;
  w.begin_object();
  w.kv("bench", "scaling");
  w.kv("scenario", bench::kEventThroughputScenario);
  w.kv("hardware_concurrency", hw);
  w.kv("target",
       ">=3x speedup at intra_jobs=4 on >=4 real cores; "
       "<=5% overhead at intra_jobs=2 on 1 core");
  w.key("cells");
  w.begin_array();
  for (const bench::EventThroughput& c : cells) {
    const double rate = c.events_per_sec();
    w.begin_object();
    w.kv("intra_jobs", c.intra_jobs);
    w.kv("cores_used", c.cores_used);
    // Affinity is a pure scheduling hint (results are byte-identical either
    // way) but it changes the throughput figures, so each cell records it.
    w.kv("pin_reactors", pin_reactors);
    w.kv("events", c.events);
    w.kv("wall_s", c.wall_s);
    w.kv("events_per_sec", rate);
    if (serial_rate > 0) w.kv("vs_serial", rate / serial_rate);
    if (c.cores_used > 1 && serial_rate > 0) {
      // Efficiency is meaningful only when real cores back the shards.
      w.kv("efficiency",
           rate / serial_rate / static_cast<double>(c.cores_used));
    }
    if (c.intra_jobs > 1) {
      w.kv("engine_windows", c.metrics.windows);
      w.kv("engine_ring_handoffs", c.metrics.ring_handoffs);
      w.kv("engine_max_ring_occupancy", c.metrics.max_ring_occupancy);
      w.kv("engine_ring_capacity", c.metrics.ring_capacity);
      w.kv("engine_ring_growths", c.metrics.ring_growths);
      w.kv("engine_spin_waits", c.metrics.spin_waits);
      w.kv("engine_central_plans", c.metrics.central_plans);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!write_json_file(path, w)) {
    std::fprintf(stderr, "bench_scaling: cannot write %s\n", path.c_str());
    return 1;
  }
  for (const bench::EventThroughput& c : cells) {
    const double rate = c.events_per_sec();
    std::printf("intra_jobs=%d  %8.2fM events/s  (%.3fx serial, %d core%s)\n",
                c.intra_jobs, rate / 1e6,
                serial_rate > 0 ? rate / serial_rate : 0.0, c.cores_used,
                c.cores_used == 1 ? "" : "s");
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) {
  std::string path = "BENCH_scaling.json";
  bool pin_reactors = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) path = argv[i] + 7;
    if (std::strcmp(argv[i], "--pin_reactors") == 0 ||
        std::strcmp(argv[i], "--pin_reactors=1") == 0)
      pin_reactors = true;
  }
  return spineless::run(path, pin_reactors);
}
