// Serving-layer benchmark: what QPS the spinelessd engine sustains on warm
// state, what request latency looks like at that load, and how the
// admission/degradation ladder behaves at 4x the sustainable rate
// (explicit `overloaded` sheds + fluid downgrades, bounded p99, no crash).
//
// Modes:
//   bench_serving                      closed-loop + overload phases,
//                                      writes BENCH_serving.json (--json=
//                                      PATH overrides; scripts/reproduce.sh
//                                      refreshes results/BENCH_serving.json)
//   bench_serving --trace=FILE         also dump the seed-deterministic
//                                      request mix to FILE and replay it
//                                      synchronously (cache exercised by
//                                      repeated bodies); the FNV hash of
//                                      the concatenated answers lands in
//                                      the JSON, so two runs — or a run
//                                      against a restored warm snapshot —
//                                      can be compared at a glance.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/engine.h"
#include "service/warm_state.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace spineless {
namespace {

using service::Engine;
using service::EngineConfig;
using service::ServiceConfig;
using service::WarmState;

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

// The seed-deterministic request mix: what-if faults on random links
// (fail/flap), TM perturbations at varied load, affected queries, and
// deliberate repeats so the result cache sees hits.
std::vector<std::string> make_mix(const WarmState& warm, std::uint64_t seed,
                                  int n) {
  Rng rng(splitmix64(seed ^ 0x5e271ce0u));
  const auto links = static_cast<std::uint64_t>(warm.graph().num_links());
  std::vector<std::string> mix;
  mix.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
    const std::uint64_t pick = rng.uniform(10);
    std::string line;
    if (pick < 4) {
      const std::uint64_t link = rng.uniform(links);
      line = "{\"id\":" + std::to_string(id) +
             ",\"kind\":\"whatif_fault\",\"spec\":\"fail link=" +
             std::to_string(link) + " at=1ms\"}";
    } else if (pick < 6) {
      const std::uint64_t link = rng.uniform(links);
      line = "{\"id\":" + std::to_string(id) +
             ",\"kind\":\"whatif_fault\",\"spec\":\"flap link=" +
             std::to_string(link) + " down=1ms up=3ms\"}";
    } else if (pick < 8) {
      const char* tm = rng.uniform(2) == 0 ? "skewed" : "permutation";
      const double scale = 0.5 + 0.25 * static_cast<double>(rng.uniform(7));
      line = "{\"id\":" + std::to_string(id) +
             ",\"kind\":\"whatif_tm\",\"tm\":\"" + tm +
             "\",\"load_scale\":" + std::to_string(scale) +
             ",\"seed_salt\":" + std::to_string(1 + rng.uniform(4)) + "}";
    } else if (pick < 9) {
      line = "{\"id\":" + std::to_string(id) +
             ",\"kind\":\"affected\",\"link\":" +
             std::to_string(rng.uniform(links)) + ",\"down\":true}";
    } else if (!mix.empty()) {
      // Repeat an earlier body under a new id: a guaranteed cache hit.
      std::string prev = mix[rng.uniform(mix.size())];
      const std::size_t comma = prev.find(',');
      line = "{\"id\":" + std::to_string(id) + "," + prev.substr(comma + 1);
    } else {
      line = "{\"id\":" + std::to_string(id) + ",\"kind\":\"status\"}";
    }
    mix.push_back(std::move(line));
  }
  return mix;
}

// Blocks until `done` has been called for every submitted request.
class ResponseCollector {
 public:
  std::function<void(std::string)> callback(double* latency_slot) {
    const double t0 = wall_s();
    return [this, latency_slot, t0](const std::string& response) {
      std::lock_guard<std::mutex> l(mu_);
      if (latency_slot != nullptr) *latency_slot = wall_s() - t0;
      classify(response);
      ++received_;
      cv_.notify_all();
    };
  }

  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return received_ >= n; });
  }

  std::uint64_t ok = 0, shed = 0, degraded = 0, errors = 0;

 private:
  void classify(const std::string& r) {
    if (r.find("\"status\":\"ok\"") != std::string::npos) {
      ++ok;
      if (r.find("\"degraded\":true") != std::string::npos) ++degraded;
    } else if (r.find("\"status\":\"overloaded\"") != std::string::npos) {
      ++shed;
    } else {
      ++errors;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t received_ = 0;
};

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::uint64_t seed = static_cast<std::uint64_t>(
      flags.get_int("seed", 1));

  ServiceConfig scfg;
  scfg.topology = flags.get("topology", "dring");
  scfg.scenario.seed = seed;
  std::printf("bench_serving: building warm state (%s)...\n",
              scfg.topology.c_str());
  const auto warm = WarmState::build(scfg);

  EngineConfig ecfg;
  ecfg.workers = static_cast<int>(flags.get_int("workers", 4));
  ecfg.queue_limit = static_cast<std::size_t>(flags.get_int("queue_limit", 32));
  ecfg.degrade_depth =
      static_cast<std::size_t>(flags.get_int("degrade_depth", 16));

  JsonWriter json;
  json.begin_object();
  json.kv("bench", "serving");
  json.kv("topology", scfg.topology);
  json.kv("switches", static_cast<std::int64_t>(warm->graph().num_switches()));
  json.kv("workers", ecfg.workers);
  json.kv("queue_limit", static_cast<std::uint64_t>(ecfg.queue_limit));

  // ---- Phase 1: closed-loop sustained throughput ----------------------
  // One in-flight request per worker: measures what the engine can sustain
  // without queueing. Latency percentiles come from per-request stamps.
  const int n_sustained = static_cast<int>(flags.get_int("requests", 200));
  double sustained_qps;
  {
    Engine engine(*warm, ecfg);
    const auto mix = make_mix(*warm, seed, n_sustained);
    std::vector<double> latency(mix.size(), 0);
    std::atomic<std::size_t> next{0};
    const double t0 = wall_s();
    std::vector<std::thread> clients;
    for (int c = 0; c < ecfg.workers; ++c) {
      clients.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= mix.size()) return;
          ResponseCollector one;
          engine.submit(mix[i], one.callback(&latency[i]));
          one.wait_for(1);
        }
      });
    }
    for (auto& t : clients) t.join();
    const double elapsed = wall_s() - t0;
    sustained_qps = static_cast<double>(mix.size()) / elapsed;

    Summary lat;
    for (double v : latency) lat.add(v * 1e3);
    const auto stats = engine.stats();
    std::printf(
        "sustained: %zu requests in %.2fs -> %.1f qps, "
        "p50 %.2fms p99 %.2fms, cache_hits %llu\n",
        mix.size(), elapsed, sustained_qps, lat.median(), lat.p99(),
        static_cast<unsigned long long>(stats.cache_hits));
    json.key("sustained");
    json.begin_object();
    json.kv("requests", static_cast<std::uint64_t>(mix.size()));
    json.kv("wall_s", elapsed);
    json.kv("qps", sustained_qps);
    json.kv("latency_p50_ms", lat.median());
    json.kv("latency_p99_ms", lat.p99());
    json.kv("cache_hits", stats.cache_hits);
    json.kv("degraded", stats.degraded);
    json.end_object();
  }

  // ---- Phase 2: open-loop overload at 4x the sustained rate ------------
  // The acceptance bar: explicit `overloaded`/degraded answers, bounded
  // p99, no crash — never an unbounded queue.
  {
    Engine engine(*warm, ecfg);
    const double target_qps = 4.0 * sustained_qps;
    const int n_overload =
        static_cast<int>(flags.get_int("overload_requests", 400));
    const auto mix = make_mix(*warm, splitmix64(seed ^ 0x4f4c), n_overload);
    std::vector<double> latency(mix.size(), 0);
    ResponseCollector all;
    const double gap_s = 1.0 / target_qps;
    const double t0 = wall_s();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      engine.submit(mix[i], all.callback(&latency[i]));
      const double next_at = t0 + gap_s * static_cast<double>(i + 1);
      const double sleep_for = next_at - wall_s();
      if (sleep_for > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_for));
    }
    all.wait_for(mix.size());
    const double elapsed = wall_s() - t0;

    Summary lat;
    for (double v : latency) lat.add(v * 1e3);
    const auto stats = engine.stats();
    std::printf(
        "overload @%.0f qps: ok %llu (degraded %llu) shed %llu errors %llu, "
        "response p99 %.2fms\n",
        target_qps, static_cast<unsigned long long>(all.ok),
        static_cast<unsigned long long>(stats.degraded),
        static_cast<unsigned long long>(all.shed),
        static_cast<unsigned long long>(all.errors), lat.p99());
    json.key("overload");
    json.begin_object();
    json.kv("target_qps", target_qps);
    json.kv("requests", static_cast<std::uint64_t>(mix.size()));
    json.kv("wall_s", elapsed);
    json.kv("ok", all.ok);
    json.kv("shed", all.shed);
    json.kv("degraded", stats.degraded);
    json.kv("errors", all.errors);
    json.kv("response_p99_ms", lat.p99());
    json.end_object();
  }

  // ---- Phase 3: deterministic trace replay -----------------------------
  {
    Engine engine(*warm, ecfg);
    const int n_trace = static_cast<int>(flags.get_int("trace_requests", 60));
    const auto mix = make_mix(*warm, splitmix64(seed ^ 0x7ace), n_trace);
    const std::string trace_path = flags.get("trace", "");
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      for (const auto& line : mix) out << line << "\n";
    }
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto& line : mix) hash = fnv1a(engine.handle_line(line), hash);
    const auto stats = engine.stats();
    std::printf("trace: %zu requests, answers_hash %016llx, cache_hits %llu\n",
                mix.size(), static_cast<unsigned long long>(hash),
                static_cast<unsigned long long>(stats.cache_hits));
    json.key("trace");
    json.begin_object();
    json.kv("requests", static_cast<std::uint64_t>(mix.size()));
    json.kv("answers_hash", hash);
    json.kv("cache_hits", stats.cache_hits);
    json.end_object();
  }

  json.end_object();
  const std::string out = flags.get("json", "BENCH_serving.json");
  if (!write_json_file(out, json))
    std::fprintf(stderr, "bench_serving: cannot write %s\n", out.c_str());
  else
    std::printf("wrote %s\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace spineless

int main(int argc, char** argv) { return spineless::run(argc, argv); }
