// WarmState: everything spinelessd keeps resident so a what-if answer
// costs milliseconds instead of a cold build — the topology, the warm
// forwarding table, the baseline workload, a warm engine checkpoint
// (Network + FlowDriver + DegradationMonitor + FaultInjector advanced to
// t_warm and sealed to bytes, never to disk on the request path), and the
// baseline run's results that what-if answers report deltas against.
//
// Crash recovery: with snapshot_dir set, the warm checkpoint and baseline
// scalars are persisted (util::atomic_write_file) after the warm build; a
// restarting daemon reloads them instead of re-simulating, and because
// restore-by-reconstruction is deterministic, answers computed against a
// reloaded warm state are byte-identical to answers computed against a
// freshly built one — the foundation of the kill-9/replay contract.
//
// What-if execution (request granularity checkpoint reuse): a fault
// request reconstructs the experiment in the exact construction order the
// warm build used, restores the warm bytes, arms ONLY the request's plan
// actions (FaultInjector::arm_actions — the BFD machinery is already in
// the restored event arrays), and runs to the horizon polling a
// cooperative cancel hook at segment boundaries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fct_experiment.h"
#include "core/scenario.h"
#include "routing/vrf.h"
#include "service/request.h"
#include "topo/graph.h"
#include "workload/flows.h"

namespace spineless::service {

struct ServiceConfig {
  core::Scenario scenario = core::Scenario::small();
  std::string topology = "dring";  // dring | rrg | leafspine

  sim::NetworkConfig net;           // mode defaults to kShortestUnion
  workload::FlowGenConfig flowgen;  // window defaults to 1ms
  double utilization = 0.3;         // derives offered load when bps == 0

  Time warm_time = 500 * units::kMicrosecond;  // warm checkpoint boundary
  Time horizon = 8 * units::kMillisecond;      // request sim deadline

  std::string snapshot_dir;  // "" = in-memory only (no crash recovery)

  ServiceConfig() {
    net.mode = sim::RoutingMode::kShortestUnion;
    flowgen.window = 1 * units::kMillisecond;
    flowgen.offered_load_bps = 0;  // derived from utilization in build()
  }
};

// Scalar baseline every what-if answer reports deltas against. Doubles
// round-trip exactly through the snapshot, so a reloaded baseline equals a
// recomputed one bit-for-bit.
struct BaselineResult {
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  double goodput_bps = 0;  // packet fidelity only; 0 for fluid
};

// One what-if answer, fidelity-tagged. `ok == false` carries the error.
struct WhatIfResult {
  bool ok = true;
  std::string error;
  Fidelity fidelity = Fidelity::kPacket;
  bool finished = true;  // false: cooperatively canceled mid-run

  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t flows = 0;
  std::uint64_t completed = 0;
  std::uint64_t stalled = 0;  // fluid: flows with no surviving path
  double delta_p50_ms = 0;    // vs the same-fidelity baseline
  double delta_p99_ms = 0;

  // Fault requests, packet fidelity only.
  double blackhole_s = 0;
  std::uint64_t outages = 0;
  double detect_ms = -1;   // first BFD detection latency; -1 = none
  double goodput_recovery = 0;  // post-fault / baseline goodput

  // affected requests.
  std::uint64_t affected_destinations = 0;
  std::vector<topo::NodeId> affected_sample;  // first <= 32, ascending
  std::int64_t unreachable_pairs_delta = 0;
};

class WarmState {
 public:
  // Builds (or, when cfg.snapshot_dir holds a matching snapshot, reloads)
  // the warm state. Throws on an impossible configuration.
  static std::unique_ptr<WarmState> build(const ServiceConfig& cfg);

  const ServiceConfig& config() const noexcept { return cfg_; }
  const topo::Graph& graph() const noexcept { return graph_; }
  std::uint64_t warm_hash() const noexcept { return warm_hash_; }
  const BaselineResult& baseline_packet() const noexcept {
    return baseline_packet_;
  }
  const BaselineResult& baseline_fluid() const noexcept {
    return baseline_fluid_;
  }
  // True when build() reloaded persisted state instead of simulating.
  bool restored_from_disk() const noexcept { return restored_; }

  // Request execution. `cancel` (nullable) is polled at quiescent segment
  // boundaries; a canceled run returns finished == false. All three are
  // deterministic functions of (warm state, request body) — no wall clock,
  // no load dependence — which is what the replay contract relies on.
  WhatIfResult whatif_fault_packet(
      const std::string& spec, std::uint64_t seed_salt,
      const std::function<bool()>& cancel) const;
  WhatIfResult whatif_fault_fluid(const std::string& spec,
                                  std::uint64_t seed_salt) const;
  WhatIfResult whatif_tm(const std::string& tm, double load_scale,
                         std::uint64_t seed_salt, Fidelity fidelity,
                         const std::function<bool()>& cancel) const;
  WhatIfResult affected(std::int64_t link, bool down) const;

 private:
  explicit WarmState(topo::Graph g) : graph_(std::move(g)) {}

  void build_fresh();
  bool try_restore_persisted();
  void persist() const;
  // The baseline-scalars file's one field list (persist and restore).
  template <class Io, class Self>
  static void baseline_fields(Io& io, Self& self);

  std::uint64_t workload_seed(std::uint64_t salt) const;
  workload::RackTm make_tm(const std::string& kind, std::uint64_t seed) const;
  std::vector<workload::FlowSpec> make_flows(const workload::RackTm& tm,
                                             std::uint64_t seed,
                                             double load_scale) const;
  // Shared fluid-model cell: per-flow ECMP paths around the links marked
  // in `is_down` (by link id; empty = none), sampled with a request-seeded
  // RNG; flows with no surviving path are reported as stalled.
  WhatIfResult run_fluid(const std::vector<workload::FlowSpec>& flows,
                         std::span<const char> is_down,
                         std::uint64_t seed) const;

  ServiceConfig cfg_;
  topo::Graph graph_;
  // The packet engine's forwarding table for cfg_.net's mode.
  routing::VrfTable table_;
  std::vector<workload::FlowSpec> baseline_flows_;
  std::string warm_bytes_;  // sealed warm checkpoint (CheckpointSession)
  std::uint64_t warm_hash_ = 0;
  BaselineResult baseline_packet_;
  BaselineResult baseline_fluid_;
  bool restored_ = false;
};

}  // namespace spineless::service
