// Hybrid packet/fluid co-simulation (ROADMAP item 2): packet-level fidelity
// inside a selected hot region of the topology, fluid max-min rates
// everywhere else, joined by a deterministic boundary layer.
//
// The packet half is an ordinary sim::Network built over the induced region
// subgraph (topo/region.h) with one gateway host per cut link; flows whose
// sampled path stays inside the region run full TCP, flows that cross the
// boundary are re-emitted as paced packet streams (sim/boundary.h) at the
// rate the fluid solve assigns them. The fluid half advances in fixed
// windows: each window boundary re-syncs boundary sources to the bytes still
// owed (dropped packets are abstract-retransmitted), measures per-flow
// packet departure rates, and re-solves the capped max-min problem ONLY when
// the active flow set changed or some measured cap moved beyond a relative
// tolerance — the incremental trigger that keeps 100k-switch sweeps cheap.
//
// Determinism: everything the fluid side does happens between
// engine.run_until calls (quiescent boundaries), uses integer-picosecond
// windows, and derives all randomness from the experiment seed, so a hybrid
// run is byte-identical across --intra_jobs, across forced reactor threads,
// and across kill -9 + --resume (the HYBR snapshot section).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fct_experiment.h"
#include "fault/injector.h"
#include "routing/bfs_sampler.h"
#include "topo/region.h"
#include "workload/flows.h"

namespace spineless::core {

enum class RegionMode {
  kSwitches,    // explicit hot switch ids
  kSupernodes,  // DRing supernode ids (requires supernode_of)
  kAuto,        // hottest connected set from the sampled fluid demand
};

struct HybridConfig {
  FctConfig fct;  // seed, packet NetworkConfig, TCP, flowgen, checkpointing

  RegionMode region_mode = RegionMode::kAuto;
  std::vector<topo::NodeId> region_switches;  // kSwitches
  std::vector<int> region_supernodes;         // kSupernodes
  int auto_region_switches = 8;               // kAuto hot-set size

  Time window = 200 * units::kMicrosecond;  // co-simulation window

  // Whole-network fault schedule (FaultPlan grammar over FULL-graph link
  // ids; empty = no faults, and every fault field below is inert so
  // fault-free runs hash identically to pre-fault builds). Region-internal
  // links drive a packet FaultInjector over the region subgraph; cut links
  // become boundary/gateway faults; everything else becomes fluid capacity
  // faults with a window-quantized outage model (core/hybrid_fault.h).
  // Gray/degrade clauses on cut links are not modeled (fail/restore only
  // there); gray on external links scales capacity by the expected goodput
  // fraction and is never "detected", mirroring packet gray semantics.
  std::string fault_spec;
  // BFD/repair timing shared by the packet injector and the fluid outage
  // model, so both halves of a fault report measure the same control
  // plane. Validated through FaultInjectorConfig::validate.
  fault::FaultInjectorConfig fault;
};

struct HybridResult {
  Summary fct_ms;  // completed flows of every kind
  std::size_t flows = 0;
  std::size_t completed = 0;
  std::size_t internal_flows = 0;  // full TCP inside the region
  std::size_t boundary_flows = 0;  // paced packet + fluid remainder
  std::size_t external_flows = 0;  // pure fluid
  std::uint64_t packet_events = 0;
  std::uint64_t fluid_windows = 0;
  std::uint64_t fluid_solves = 0;
  std::uint64_t fluid_solves_skipped = 0;  // incremental-trigger reuse
  int region_switches = 0;
  int cut_links = 0;
  std::int64_t queue_drops = 0;    // inside the packet region
  std::int64_t retransmits = 0;    // internal TCP flows
  int intra_jobs = 1;
  double table_build_s = 0.0;      // region tables + path sampling setup
  // The part of table_build_s spent sampling every flow's full-graph path,
  // and the sampler's BFS work for it. Timing and work counts only: never
  // part of result_hash.
  double path_sample_s = 0.0;
  routing::BfsSampler::Counters path_sample_work;
  bool finished = true;            // false when the cancel hook stopped it
  // Order-sensitive chain over every per-flow outcome — the byte-identity
  // fingerprint the determinism suite and check.sh's smoke stage compare.
  std::uint64_t result_hash = 0;

  // Whole-network fault tolerance (populated iff fault_spec is non-empty).
  std::size_t stalled_flows = 0;   // fluid flows with no surviving path at end
  std::size_t boundary_repins = 0;
  std::size_t fluid_outages = 0;
  // Sum over fluid-side outages of min(t_routed_out, t_restored, end) -
  // t_down — the packet injector's blackhole formula applied to the fluid
  // half's links.
  double fluid_blackhole_seconds = 0;
  double stalled_seconds = 0;      // per-flow no-surviving-path time, summed
  // Peak per-window goodput after the last topology change / peak before
  // the first fault (0 when either phase saw no traffic).
  double goodput_recovery = 0;
  // Unified cross-half fault report (packet outages + fluid outages +
  // boundary re-pins) as deterministic JSON; empty when fault_spec is.
  std::string fault_report;

  double median_ms() const { return fct_ms.median(); }
  double p99_ms() const { return fct_ms.p99(); }
};

// Snapshot config hash: the fct hash fields plus the hybrid knobs and a
// chain over the exact flow list (the rng tier generates flows without a
// dense rack TM, so the specs themselves are part of the configuration).
std::uint64_t hybrid_config_hash(const topo::Graph& g,
                                 const std::vector<workload::FlowSpec>& specs,
                                 const HybridConfig& cfg);

// Runs the co-simulation over an explicit flow list (the 10k-100k-switch
// rng tier generates these directly — a dense RackTm would be O(racks^2)).
// supernode_of is only consulted in RegionMode::kSupernodes.
HybridResult run_hybrid_experiment_flows(
    const topo::Graph& g, const std::vector<workload::FlowSpec>& specs,
    const HybridConfig& cfg, const std::vector<int>* supernode_of = nullptr);

// Convenience wrapper generating the workload exactly like
// run_fct_experiment (same seed protocol: placement, then flow draw).
HybridResult run_hybrid_experiment(const topo::Graph& g,
                                   const workload::RackTm& tm,
                                   const HybridConfig& cfg,
                                   const std::vector<int>* supernode_of =
                                       nullptr);

}  // namespace spineless::core
