// Shared helpers for the figure/table reproduction binaries.
//
// Every bench supports two scales:
//  * default  — a medium configuration (same switch roles, 3:1
//    oversubscription, ~1/2 the port count) that finishes in seconds;
//  * --scale=paper or SPINELESS_PAPER_SCALE=1 — the paper's §5.1
//    configuration (leaf-spine(48,16), 3072 servers, 12-supernode DRing).
//
// Every bench also supports --jobs=N (default: SPINELESS_JOBS or hardware
// concurrency): independent cells fan out over a util::Runner, and output
// is byte-identical for every N because cells derive their randomness from
// their index and results are collected in index order. Each bench writes
// a machine-readable BENCH_<name>.json next to the working directory
// (override the path with --json_out=...).
//
// Every row of that JSON is a Cell. for_each_field lists a Cell's fields
// once, with their JSON and sweep-journal keys; the JSON writer and the
// journal encoder and decoder (cell_to_fields / cell_from_fields) walk that
// list and name no field themselves. fct_cell, hybrid_cell and
// hybrid_fault_cell copy an experiment result into a Cell.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "core/scenario.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/fsio.h"
#include "util/json.h"
#include "util/resilient.h"
#include "util/runner.h"
#include "util/sweep_journal.h"

namespace spineless::bench {

// Process-start timestamp for total_wall_s. A namespace-scope inline
// constant so it is captured during static initialization — BenchJson used
// to start this clock at its own construction, after every cell had
// already run, reporting totals near zero.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// --- SIGINT/SIGTERM handling -----------------------------------------------
// First signal: set the flag; cells poll it at their checkpoint boundaries,
// flush a final snapshot, and the driver writes a partial BENCH JSON.
// Second signal: the user really means it — hard-exit.
namespace detail {
inline std::atomic<bool> g_interrupted{false};
inline void on_signal(int) {
  if (g_interrupted.exchange(true)) std::_Exit(130);
}
}  // namespace detail

inline bool interrupted() {
  return detail::g_interrupted.load(std::memory_order_acquire);
}

inline void install_signal_handlers() {
  std::signal(SIGINT, detail::on_signal);
  std::signal(SIGTERM, detail::on_signal);
}

inline core::Scenario scenario_from(const Flags& flags) {
  core::Scenario s;
  if (flags.paper_scale()) {
    s = core::Scenario::paper();
  } else {
    // Medium default: leaf-spine(24, 8) -> 32 racks, 768 servers; flat
    // equivalents use the same 48 switches... (x + 2y = 40 switches).
    s.x = 24;
    s.y = 8;
    s.dring_supernodes = 10;
  }
  s.x = static_cast<int>(flags.get_int("x", s.x));
  s.y = static_cast<int>(flags.get_int("y", s.y));
  s.dring_supernodes = static_cast<int>(
      flags.get_int("supernodes", s.dring_supernodes));
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  return s;
}

inline int jobs_from(const Flags& flags) {
  const auto jobs = flags.get_int("jobs", util::default_jobs());
  return jobs < 1 ? 1 : static_cast<int>(jobs);
}

// --intra_jobs=N: shards per simulated cell (sharded conservative engine;
// results are byte-identical for every N). Default 1 = serial engine.
inline int intra_jobs_from(const Flags& flags) {
  const auto intra = flags.get_int("intra_jobs", 1);
  return intra < 1 ? 1 : static_cast<int>(intra);
}

// Outer (cell-level) worker count once each cell takes intra_jobs threads:
// --jobs is the total thread budget, split as outer x intra.
inline int outer_jobs(const Flags& flags) {
  return std::max(1, jobs_from(flags) / intra_jobs_from(flags));
}

// Self-healing knobs: --max_attempts (retries on the same seed),
// --cell_timeout_s (per-attempt wall clock), --progress_timeout_s (max
// seconds without the event counter advancing), --backoff_s. SIGINT/SIGTERM
// compose in as the external interrupt, so a ^C cancels cells at their next
// checkpoint boundary instead of killing the process mid-write.
inline util::RetryPolicy retry_policy_from(const Flags& flags) {
  util::RetryPolicy p;
  p.max_attempts =
      std::max<int>(1, static_cast<int>(flags.get_int("max_attempts", 2)));
  p.wall_timeout_s = flags.get_double("cell_timeout_s", 0);
  p.progress_timeout_s = flags.get_double("progress_timeout_s", 0);
  p.backoff_base_s = flags.get_double("backoff_s", 0.25);
  p.interrupted = [] { return interrupted(); };
  return p;
}

inline void print_header(const char* title, const core::Scenario& s,
                         const Flags& flags) {
  std::printf("== %s ==\n", title);
  std::printf(
      "scenario: leaf-spine(x=%d, y=%d) | %d switches x %d ports | "
      "%d servers | DRing m=%d | scale=%s | jobs=%d\n\n",
      s.x, s.y, s.num_switches(), s.ports_per_switch(),
      s.leaf_spine_servers(), s.dring_supernodes,
      flags.paper_scale() ? "paper" : "medium", jobs_from(flags));
}

// A cell result plus the wall-clock seconds that cell took on its worker.
template <typename R>
struct Timed {
  R value{};
  double wall_s = 0;
};

// Fans fn(0..n-1) over the runner, wall-timing each cell. Results come
// back in index order regardless of jobs (see util::Runner's determinism
// contract), so drivers print them exactly as a serial loop would have.
template <typename Fn>
auto sweep(util::Runner& runner, std::size_t n, Fn&& fn)
    -> std::vector<Timed<std::invoke_result_t<Fn&, std::size_t>>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  return runner.map(n, [&fn](std::size_t i) {
    const auto start = std::chrono::steady_clock::now();
    Timed<R> timed;
    timed.value = fn(i);
    timed.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return timed;
  });
}

// One BENCH result row. Sections (fct, hybrid, ...) are present when their
// has_* flag is set; which benches fill which is noted per section.
struct Cell {
  std::string label;
  double wall_s = 0;
  std::uint64_t events = 0;
  int intra_jobs = 1;
  double table_build_s = 0;
  double path_sample_s = 0;  // hybrid cells: the path-sampling part of it
  // Self-healing runner outcome. Emitted only when non-default so a clean
  // run's JSON is byte-identical with or without the resilient path.
  std::string status = "ok";  // "ok" | "failed" | "interrupted"
  int attempts = 1;
  std::string error;
  bool has_fct = false;
  std::size_t flows = 0;
  std::size_t completed = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::int64_t drops = 0;
  std::int64_t retransmits = 0;
  // Fault-injection cells (bench_failures part 3): degradation metrics
  // from the FaultInjector / DegradationMonitor pair.
  bool has_fault = false;
  double blackhole_s = 0;
  double detect_ms = -1;  // first outage: BFD detection delay
  double outage_ms = -1;  // first outage: until tables routed around it
  std::int64_t blackhole_drops = 0;
  std::int64_t gray_drops = 0;
  std::int64_t corrupt_drops = 0;
  std::size_t rescued_flows = 0;   // completed only thanks to an RTO
  double goodput_recovery = 0;     // post-restore / pre-fault goodput
  int undetected_gray_windows = 0;
  std::size_t fault_outages = 0;   // control-plane outage events observed
  std::size_t fault_completed = 0;
  std::size_t fault_flows = 0;
  // Hybrid packet/fluid cells (bench_hybrid, bench_fig6_scale --scale=rng):
  // the per-flow byte-identity fingerprint plus the co-simulation split.
  bool has_hybrid = false;
  std::uint64_t result_hash = 0;
  std::uint64_t fluid_windows = 0;
  std::uint64_t fluid_solves = 0;
  std::uint64_t fluid_solves_skipped = 0;
  std::size_t internal_flows = 0;
  std::size_t boundary_flows = 0;
  std::size_t external_flows = 0;
  int region_switches = 0;
  int cut_links = 0;
  // Whole-network fault-tolerance cells (bench_hybrid --faults): the
  // cross-boundary fault metrics from HybridResult. goodput_recovery is
  // shared with the packet-fault block above — a cell is one or the other.
  bool has_hybrid_fault = false;
  int failed_links = 0;
  std::size_t stalled_flows = 0;
  std::size_t boundary_repins = 0;
  std::size_t fluid_outages = 0;
  double fluid_blackhole_s = 0;
  double stalled_s = 0;
  // Calibration cells (bench_hybrid): the pure-packet reference and the
  // hybrid/packet FCT ratios the documented tolerance is judged against.
  bool has_calib = false;
  double packet_p50_ms = 0;
  double packet_p99_ms = 0;
  double p50_ratio = 0;
  double p99_ratio = 0;
};

// The JSON key of a Cell field or section, and its sweep-journal key. They
// agree except where a journal key predates the JSON name; those stay as
// they are so journals written by older builds still resume.
struct FieldKey {
  // Implicit, so a field whose keys agree is written as a plain "key".
  FieldKey(const char* key) : json(key), journal(key) {}
  FieldKey(const char* json_key, const char* journal_key)
      : json(json_key), journal(journal_key) {}
  const char* json;
  const char* journal;
};

// The one list of Cell fields, in JSON order; the JSON writer, the journal
// encoder and the journal decoder below are visitors over it. For each
// field v.field(key, member, emit) — emit false leaves it out of the JSON
// and the journal (the decoder then keeps the member's default). A section
// is v.section(key, has_flag, body): written only when the flag is set,
// journaled as key.journal = "1". v.derived names a JSON-only value.
template <class C, class V>
void for_each_field(C& c, V&& v) {
  v.field("label", c.label);
  v.field("wall_s", c.wall_s);
  v.field("events", c.events);
  v.derived("events_per_sec",
            c.wall_s > 0 ? static_cast<double>(c.events) / c.wall_s : 0.0);
  v.field("intra_jobs", c.intra_jobs);
  v.field("status", c.status, c.status != "ok");
  v.field("error", c.error, c.status != "ok" && !c.error.empty());
  v.field("attempts", c.attempts, c.attempts > 1);
  v.field("table_build_s", c.table_build_s, c.table_build_s > 0);
  v.field("path_sample_s", c.path_sample_s, c.path_sample_s > 0);
  v.section("fct", c.has_fct, [&] {
    v.field("flows", c.flows);
    v.field("completed", c.completed);
    v.field("p50_ms", c.p50_ms);
    v.field("p99_ms", c.p99_ms);
    v.field("drops", c.drops);
    v.field("retransmits", c.retransmits);
  });
  v.section("hybrid", c.has_hybrid, [&] {
    v.field("result_hash", c.result_hash);
    v.field("fluid_windows", c.fluid_windows);
    v.field("fluid_solves", c.fluid_solves);
    v.field("fluid_solves_skipped", c.fluid_solves_skipped);
    v.field("internal_flows", c.internal_flows);
    v.field("boundary_flows", c.boundary_flows);
    v.field("external_flows", c.external_flows);
    v.field("region_switches", c.region_switches);
    v.field("cut_links", c.cut_links);
  });
  v.section({"fault_tolerance", "hybrid_fault"}, c.has_hybrid_fault, [&] {
    v.field("failed_links", c.failed_links);
    v.field("fluid_outages", c.fluid_outages);
    v.field("stalled_flows", c.stalled_flows);
    v.field("boundary_repins", c.boundary_repins);
    v.field("fluid_blackhole_s", c.fluid_blackhole_s);
    v.field("stalled_s", c.stalled_s);
    v.field("goodput_recovery", c.goodput_recovery);
  });
  v.section({"calibration", "calib"}, c.has_calib, [&] {
    v.field("packet_p50_ms", c.packet_p50_ms);
    v.field("packet_p99_ms", c.packet_p99_ms);
    v.field("p50_ratio", c.p50_ratio);
    v.field("p99_ratio", c.p99_ratio);
  });
  v.section("fault", c.has_fault, [&] {
    v.field("blackhole_s", c.blackhole_s);
    v.field("detect_ms", c.detect_ms);
    v.field("outage_ms", c.outage_ms);
    v.field("blackhole_drops", c.blackhole_drops);
    v.field("gray_drops", c.gray_drops);
    v.field("corrupt_drops", c.corrupt_drops);
    v.field("rescued_flows", c.rescued_flows);
    v.field("goodput_recovery", c.goodput_recovery);
    v.field({"undetected_gray_windows", "undetected_gray"},
            c.undetected_gray_windows);
    v.field("ctrl_outages", c.fault_outages);
    v.field({"completed", "fault_completed"}, c.fault_completed);
    v.field({"flows", "fault_flows"}, c.fault_flows);
  });
}

// The FCT part of a cell, copied from an FctResult or a HybridResult (they
// name these members alike). `events` is the packet-event count, which the
// two results name differently.
template <class R>
Cell fct_cell(const std::string& label, const R& r, std::uint64_t events) {
  Cell c;
  c.label = label;
  c.events = events;
  c.intra_jobs = r.intra_jobs;
  c.table_build_s = r.table_build_s;
  c.has_fct = true;
  c.flows = r.flows;
  c.completed = r.completed;
  c.p50_ms = r.median_ms();
  c.p99_ms = r.p99_ms();
  c.drops = r.queue_drops;
  c.retransmits = r.retransmits;
  return c;
}

namespace detail {

// for_each_field visitor: the cell's members as JsonWriter key/values.
struct CellJsonWriter {
  JsonWriter& w;
  template <class T>
  void field(FieldKey k, const T& member, bool emit = true) {
    if (emit) w.kv(k.json, member);
  }
  void derived(const char* key, double value) { w.kv(key, value); }
  template <class Body>
  void section(FieldKey k, bool has, Body&& body) {
    if (!has) return;
    w.key(k.json);
    w.begin_object();
    body();
    w.end_object();
  }
};

// The journal record of a cell: doubles via %.17g (exact for IEEE-754
// binary64), integers in decimal, sections flagged "1".
struct CellJournalWriter {
  util::SweepJournal::Fields& f;
  template <class T>
  void field(FieldKey k, const T& member, bool emit = true) {
    if (!emit) return;
    if constexpr (std::is_same_v<T, std::string>) {
      f[k.journal] = member;
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", member);
      f[k.journal] = buf;
    } else {
      f[k.journal] = std::to_string(member);
    }
  }
  void derived(const char*, double) {}
  template <class Body>
  void section(FieldKey k, bool has, Body&& body) {
    if (!has) return;
    f[k.journal] = "1";
    body();
  }
};

// Keys a record lacks leave their member at its Cell default.
struct CellJournalReader {
  const util::SweepJournal::Fields& f;
  template <class T>
  void field(FieldKey k, T& member, bool /*emit*/ = true) {
    const auto it = f.find(k.journal);
    if (it == f.end()) return;
    const std::string& s = it->second;
    if constexpr (std::is_same_v<T, std::string>) {
      member = s;
    } else if constexpr (std::is_floating_point_v<T>) {
      member = std::strtod(s.c_str(), nullptr);
    } else if constexpr (std::is_unsigned_v<T>) {  // full uint64 range
      member = static_cast<T>(std::strtoull(s.c_str(), nullptr, 10));
    } else {
      member = static_cast<T>(std::strtoll(s.c_str(), nullptr, 10));
    }
  }
  void derived(const char*, double) {}
  template <class Body>
  void section(FieldKey k, bool& has, Body&& body) {
    const auto it = f.find(k.journal);
    has = it != f.end() && std::strtoll(it->second.c_str(), nullptr, 10) != 0;
    if (has) body();
  }
};

}  // namespace detail

// Accumulates per-cell rows and writes BENCH_<name>.json on write():
//   {"bench": ..., "scale": ..., "jobs": N, "total_wall_s": ...,
//    "cells": [{"label": ..., "wall_s": ..., "events": ...,
//               "events_per_sec": ..., "fct": {...}}, ...]}
class BenchJson {
 public:
  using Cell = bench::Cell;

  BenchJson(std::string name, const Flags& flags)
      : name_(std::move(name)),
        scale_(flags.get("scale", flags.paper_scale() ? "paper" : "medium")),
        jobs_(jobs_from(flags)),
        path_(flags.get("json_out", "BENCH_" + name_ + ".json")) {}

  void add(Cell cell) { cells_.push_back(std::move(cell)); }

  // An interrupted sweep writes what it has, marked "partial": true; a
  // --resume run completes the rest.
  void mark_partial() { partial_ = true; }
  // A resumed sweep carries cell wall times from a previous process, which
  // can exceed this process's uptime — relax the total-wall sanity check.
  void mark_resumed() { resumed_ = true; }

  // Convenience: a cell backed by a timed FctResult.
  void add_fct(const std::string& label,
               const Timed<core::FctResult>& timed) {
    Cell c = fct_cell(label, timed.value, timed.value.events);
    c.wall_s = timed.wall_s;
    add(std::move(c));
  }

  // Writes the file; prints a one-line pointer so users find the artifact.
  void write() const {
    // total_wall_s counts from process start: with parallel cells it is
    // NOT the sum of cell times, but it can never be less than the
    // longest single cell.
    const double total_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      kProcessStart)
            .count();
    double max_cell_wall_s = 0;
    for (const Cell& c : cells_)
      max_cell_wall_s = std::max(max_cell_wall_s, c.wall_s);
    SPINELESS_CHECK_MSG(resumed_ || total_wall_s >= max_cell_wall_s,
                        "total_wall_s below the longest cell — the bench "
                        "clock must start at process start");
    JsonWriter w;
    w.begin_object();
    w.kv("bench", name_);
    w.kv("scale", scale_);
    w.kv("jobs", jobs_);
    if (partial_) w.kv("partial", true);
    w.kv("total_wall_s", total_wall_s);
    w.key("cells");
    w.begin_array();
    for (const Cell& c : cells_) {
      w.begin_object();
      for_each_field(c, detail::CellJsonWriter{w});
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (write_json_file(path_, w))
      std::printf("\nwrote %s (%zu cells)\n", path_.c_str(), cells_.size());
    else
      std::fprintf(stderr, "warning: could not write %s\n", path_.c_str());
  }

 private:
  std::string name_;
  std::string scale_;
  int jobs_;
  std::string path_;
  std::vector<Cell> cells_;
  bool partial_ = false;
  bool resumed_ = false;
};

// --- Resumable sweeps --------------------------------------------------------
// Cell results round-trip through the sweep journal as key=value strings.
// Fields the JSON leaves out are left out of the record too and take their
// Cell default on read, so a journaled cell re-emits the same JSON a live
// one would.
inline util::SweepJournal::Fields cell_to_fields(const Cell& c) {
  util::SweepJournal::Fields f;
  for_each_field(c, detail::CellJournalWriter{f});
  return f;
}

inline Cell cell_from_fields(const util::SweepJournal::Fields& f) {
  Cell c;
  for_each_field(c, detail::CellJournalReader{f});
  return c;
}

// --- rng-scale hybrid tier ---------------------------------------------------
// Skewed workload for the 10k-100k-switch hybrid cells (the AWS "RNG" design
// point): `hot_flows` flows fan in to the servers of the first `hot_tors`
// ToRs — the congested region the auto cut should find — plus `bg_flows`
// uniform background flows that stay fluid. Generated directly as a flow
// list: a dense RackTm would be O(racks^2) at this scale. Deterministic in
// (seed) alone, so cells are byte-identical for any --jobs split.
inline std::vector<workload::FlowSpec> rng_tier_flows(
    const topo::Graph& g, std::uint64_t seed, int hot_tors, int hot_flows,
    int bg_flows, std::int64_t bytes, Time arrival_window) {
  Rng rng(splitmix64(seed ^ 0x726e675fULL));
  std::vector<topo::HostId> hot;
  for (topo::NodeId t = 0; t < g.num_switches() && t < hot_tors; ++t)
    for (int s = 0; s < g.servers(t); ++s)
      hot.push_back(g.first_host_of(t) + s);
  const auto hosts = static_cast<std::uint64_t>(g.total_servers());
  std::vector<workload::FlowSpec> specs;
  specs.reserve(static_cast<std::size_t>(hot_flows + bg_flows));
  const auto draw_start = [&] {
    return static_cast<Time>(
        rng.uniform(static_cast<std::uint64_t>(arrival_window)));
  };
  for (int i = 0; i < hot_flows; ++i) {
    const auto dst = hot[rng.uniform(hot.size())];
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    if (src == dst) src = static_cast<topo::HostId>((src + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, bytes, draw_start()});
  }
  for (int i = 0; i < bg_flows; ++i) {
    auto src = static_cast<topo::HostId>(rng.uniform(hosts));
    auto dst = static_cast<topo::HostId>(rng.uniform(hosts));
    if (dst == src) dst = static_cast<topo::HostId>((dst + 1) % hosts);
    specs.push_back(workload::FlowSpec{src, dst, bytes, draw_start()});
  }
  return specs;
}

// Copies a HybridResult into a journal-round-trippable cell.
inline Cell hybrid_cell(const std::string& label, const core::HybridResult& r) {
  Cell c = fct_cell(label, r, r.packet_events);
  c.path_sample_s = r.path_sample_s;
  c.has_hybrid = true;
  c.result_hash = r.result_hash;
  c.fluid_windows = r.fluid_windows;
  c.fluid_solves = r.fluid_solves;
  c.fluid_solves_skipped = r.fluid_solves_skipped;
  c.internal_flows = r.internal_flows;
  c.boundary_flows = r.boundary_flows;
  c.external_flows = r.external_flows;
  c.region_switches = r.region_switches;
  c.cut_links = r.cut_links;
  return c;
}

// A hybrid cell plus the whole-network fault-tolerance metrics
// (bench_hybrid --faults).
inline Cell hybrid_fault_cell(const std::string& label,
                              const core::HybridResult& r, int failed_links) {
  Cell c = hybrid_cell(label, r);
  c.has_hybrid_fault = true;
  c.failed_links = failed_links;
  c.stalled_flows = r.stalled_flows;
  c.boundary_repins = r.boundary_repins;
  c.fluid_outages = r.fluid_outages;
  c.fluid_blackhole_s = r.fluid_blackhole_seconds;
  c.stalled_s = r.stalled_seconds;
  c.goodput_recovery = r.goodput_recovery;
  return c;
}

// Everything scenario-shaped that changes cell results; benches append
// their own sweep-specific knobs before handing it to ResumableSweep.
inline std::string base_config_sig(const Flags& flags) {
  const core::Scenario s = scenario_from(flags);
  std::string sig = "x=" + std::to_string(s.x) + " y=" + std::to_string(s.y) +
                    " m=" + std::to_string(s.dring_supernodes) +
                    " seed=" + std::to_string(s.seed) +
                    " intra=" + std::to_string(intra_jobs_from(flags)) +
                    " scale=";
  sig += flags.paper_scale() ? "paper" : "medium";
  return sig;
}

// Per-sweep crash-safety state: the journal of finished cells, per-cell
// checkpoint paths, and the CheckpointSpec each running cell threads into
// its experiment. Flags: --resume, --audit, --checkpoint_ms plus the
// retry_policy_from knobs.
class ResumableSweep {
 public:
  ResumableSweep(const std::string& bench, const Flags& flags,
                 const std::string& config_sig)
      : resume_(flags.get_bool("resume", false)),
        audit_(flags.get_bool("audit", false)),
        checkpoint_ms_(flags.get_double("checkpoint_ms", 0)),
        policy_(retry_policy_from(flags)),
        journal_(flags.get("json_out", "BENCH_" + bench + ".json") +
                     ".sweep.journal",
                 bench, config_sig, resume_) {
    // The cell checkpoints of a discarded journal's run would fail their
    // configuration check on restore; start those cells afresh.
    if (journal_.discarded()) remove_recovery_files();
  }

  const util::RetryPolicy& policy() const noexcept { return policy_; }
  util::SweepJournal& journal() noexcept { return journal_; }
  bool resuming() const noexcept { return resume_; }

  // Periodic snapshot files are only worth their write cost when the user
  // asked for resumability; the audit/cancel/progress hooks are free of
  // them and always on.
  bool checkpoints_enabled() const noexcept {
    return resume_ || checkpoint_ms_ > 0;
  }

  std::string checkpoint_path(std::size_t i) const {
    return journal_.path() + ".cell" + std::to_string(i) + ".ckpt";
  }

  sim::CheckpointSpec spec_for(std::size_t i, util::CellContext& ctx) const {
    sim::CheckpointSpec spec;
    if (checkpoints_enabled()) spec.path = checkpoint_path(i);
    spec.resume = resume_;
    spec.audit = audit_;
    // --checkpoint_ms is wall-agnostic sim time (Time is picoseconds).
    spec.interval = static_cast<Time>(checkpoint_ms_ * 1e9);
    spec.cancel = [&ctx] { return ctx.canceled(); };
    spec.progress = [&ctx](std::uint64_t events) { ctx.heartbeat(events); };
    return spec;
  }

  // After a sweep completes (every cell ok or permanently failed — not
  // interrupted), its results live in the BENCH JSON; drop the recovery
  // artifacts so a later run starts clean. Beyond the cell checkpoints
  // themselves, a SIGKILL can land inside atomic_write_file and orphan a
  // "<ckpt>.tmp.<pid>" temp file whose pid belongs to the dead run, so
  // sweep the directory for anything prefixed by the journal name.
  void finish(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      util::remove_file(checkpoint_path(i));
    remove_recovery_files();
    journal_.remove();
  }

 private:
  // Every file named "<journal>.*": cell checkpoints and orphaned temps.
  void remove_recovery_files() const {
    namespace fs = std::filesystem;
    const fs::path journal(journal_.path());
    const fs::path dir =
        journal.has_parent_path() ? journal.parent_path() : fs::path(".");
    const std::string prefix = journal.filename().string() + ".";
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      const std::string name = it->path().filename().string();
      if (name.compare(0, prefix.size(), prefix) == 0) {
        std::error_code rm_ec;  // best-effort: a lost race is fine
        fs::remove(it->path(), rm_ec);
      }
    }
  }

  bool resume_;
  bool audit_;
  double checkpoint_ms_;
  util::RetryPolicy policy_;
  util::SweepJournal journal_;
};

// Self-healing, resumable fan-out: journaled cells are returned as-is
// (skipped), the rest run under the watchdog/retry policy, and every cell
// that finishes (ok or permanently failed) is journaled. fn(i, ctx) must
// return a fully-populated Cell except wall_s/attempts/status, which this
// wrapper owns. Results come back in index order.
template <typename Fn>
std::vector<Cell> run_resumable(util::Runner& runner, std::size_t n,
                                ResumableSweep& sweep, Fn&& fn) {
  // Snapshot the journal hits before the parallel map: get() is not safe
  // against a concurrent record(), but std::map nodes stay put, so the
  // prefetched pointers survive later inserts.
  std::vector<const util::SweepJournal::Fields*> done(n, nullptr);
  for (std::size_t i = 0; i < n; ++i)
    done[i] = sweep.journal().get("cell" + std::to_string(i));

  util::Watchdog dog(n, sweep.policy());
  return runner.map(n, [&](std::size_t i) {
    if (done[i]) return cell_from_fields(*done[i]);
    const std::string label = "cell" + std::to_string(i);
    const auto start = std::chrono::steady_clock::now();
    auto out = util::run_cell_attempts(
        dog.slot(i), sweep.policy(), label,
        [&](util::CellContext& ctx) { return fn(i, ctx); });
    Cell cell = std::move(out.value);
    cell.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    cell.attempts = out.status.attempts;
    switch (out.status.state) {
      case util::CellState::kOk:
        break;
      case util::CellState::kFailed:
        cell.status = "failed";
        cell.error = out.status.error;
        if (cell.label.empty()) cell.label = label;
        break;
      case util::CellState::kInterrupted:
        // Not journaled: --resume re-runs it from its last checkpoint.
        cell.status = "interrupted";
        if (cell.label.empty()) cell.label = label;
        return cell;
    }
    sweep.journal().record(label, cell_to_fields(cell));
    return cell;
  });
}

}  // namespace spineless::bench
