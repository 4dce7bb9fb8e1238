// Flow-completion-time experiment (the paper's §6.1 / Figure 4): generate a
// finite-flow workload from a rack-level traffic matrix, run it through the
// packet-level simulator on a given topology + routing, and report the FCT
// distribution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/network.h"
#include "sim/tcp.h"
#include "topo/graph.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/flows.h"
#include "workload/tm.h"

namespace spineless::core {

struct FctConfig {
  sim::NetworkConfig net;
  sim::TcpConfig tcp;
  workload::FlowGenConfig flowgen;
  bool random_placement = false;
  std::uint64_t seed = 1;
  // Simulation keeps running after the arrival window so straggler flows
  // can finish; flows still incomplete at window * drain_factor are
  // reported as incomplete.
  double drain_factor = 20.0;
  // Crash-safety hooks: periodic snapshots, resume, the invariant auditor,
  // and the self-healing runner's cancel/progress callbacks. Disabled by
  // default (a single uninterrupted run_until — zero overhead). Because
  // checkpoints land at quiescent engine boundaries, a segmented run is
  // byte-identical to an uninterrupted one. Not used by the fluid model.
  sim::CheckpointSpec checkpoint;
};

struct FctResult {
  Summary fct_ms;               // completed flows only
  std::size_t flows = 0;
  std::size_t completed = 0;
  std::int64_t queue_drops = 0;
  std::int64_t retransmits = 0;
  std::int64_t max_queue_bytes = 0;  // hottest switch-switch queue
  std::uint64_t events = 0;
  int intra_jobs = 1;           // shards the cell actually ran with
  double table_build_s = 0.0;   // route-table (re)construction wall time
  // False when checkpoint.cancel stopped the run early (a checkpoint was
  // saved; a --resume continues from it). Partial results are not reported.
  bool finished = true;

  double median_ms() const { return fct_ms.median(); }
  double p99_ms() const { return fct_ms.p99(); }
};

// Everything that determines the reconstructed experiment — seed, topology
// shape, routing, shard count, workload window — chained into the snapshot
// config hash. Restore refuses a snapshot whose hash differs.
std::uint64_t fct_config_hash(const topo::Graph& g, const FctConfig& cfg);

// The cell's workload: flows sampled from `tm` (after a random host
// placement when cfg.random_placement is set), drawing from `rng`. Callers
// that go on sampling paths keep drawing from the same stream.
std::vector<workload::FlowSpec> generate_experiment_flows(
    const topo::Graph& g, const workload::RackTm& tm, const FctConfig& cfg,
    Rng& rng);

// Simulated time the cell runs to: the arrival window times drain_factor.
Time run_deadline(const FctConfig& cfg);

// Runs one (topology, TM, routing) cell of Figure 4. With
// cfg.net.intra_jobs > 1 the cell runs on the sharded conservative engine
// (see sim/sharded_engine.h) — results are byte-identical to serial.
FctResult run_fct_experiment(const topo::Graph& g, const workload::RackTm& tm,
                             const FctConfig& cfg);

// Same experiment in the event-driven flow-level (fluid) model: identical
// workload and per-flow hashed paths, max-min rate sharing instead of
// packet-level TCP. Orders of magnitude faster; bench_fidelity quantifies
// where its FCTs track the packet simulator and where transport dynamics
// (slow start, loss, RTOs) make them diverge. queue_drops/retransmits are
// zero by construction in this model.
FctResult run_fct_experiment_fluid(const topo::Graph& g,
                                   const workload::RackTm& tm,
                                   const FctConfig& cfg);

}  // namespace spineless::core
