// Hybrid packet/fluid co-simulation suite (core/hybrid_experiment):
//  * determinism — identical result bytes across --intra_jobs {1,2,4,7} and
//    with real reactor threads forced,
//  * crash safety — a run cancelled at a boundary window and resumed from
//    its HYBR snapshot matches an uninterrupted run byte-for-byte,
//  * degenerate region — hot set = whole graph reduces the co-simulation to
//    the pure packet experiment exactly (same per-flow FCTs),
//  * calibration — with a partial hot region, hybrid FCTs stay within the
//    documented envelope of pure-packet on the bench_fidelity small cell
//    (bench_hybrid measures the error precisely; this test pins the bound).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fct_experiment.h"
#include "core/hybrid_experiment.h"
#include "topo/builders.h"
#include "topo/region.h"
#include "util/fsio.h"
#include "workload/flows.h"
#include "workload/tm.h"

namespace spineless::core {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "spineless_hybrid_" + name;
}

struct HybridPrint {
  std::uint64_t result_hash = 0;
  std::uint64_t packet_events = 0;
  std::uint64_t fluid_windows = 0;
  std::uint64_t fluid_solves = 0;
  std::uint64_t fluid_solves_skipped = 0;
  std::size_t flows = 0, completed = 0;
  std::size_t internal = 0, boundary = 0, external = 0;
  std::int64_t drops = 0, retransmits = 0;
  double p50 = 0, p99 = 0;
  bool operator==(const HybridPrint&) const = default;
};

HybridPrint print(const HybridResult& r) {
  return HybridPrint{r.result_hash,    r.packet_events,
                     r.fluid_windows,  r.fluid_solves,
                     r.fluid_solves_skipped,
                     r.flows,          r.completed,
                     r.internal_flows, r.boundary_flows,
                     r.external_flows, r.queue_drops,
                     r.retransmits,    r.median_ms(),
                     r.p99_ms()};
}

// The bench_fidelity-style small cell: a 6x2 DRing, uniform TM at moderate
// load, hot region = two adjacent supernodes (a DRing has no intra-
// supernode links, so a single supernode would be a disconnected region; a
// +1-adjacent pair is the smallest connected "congested supernodes" cut).
// Internal, boundary, and external flows all occur.
HybridConfig small_cfg(int intra, int reactor_threads = 0) {
  HybridConfig cfg;
  cfg.fct.seed = 7;
  cfg.fct.net.intra_jobs = intra;
  cfg.fct.net.reactor_threads = reactor_threads;
  cfg.fct.flowgen.offered_load_bps =
      workload::spine_offered_load_bps(6, 2, 10e9, /*utilization=*/0.3);
  cfg.fct.flowgen.window = units::kMillisecond;
  cfg.fct.drain_factor = 8.0;
  cfg.region_mode = RegionMode::kSupernodes;
  cfg.region_supernodes = {0, 1};
  // Small cell, short flows: a fine co-simulation window keeps the
  // window-granularity loss recovery out of the FCT tail.
  cfg.window = 50 * units::kMicrosecond;
  return cfg;
}

TEST(Hybrid, MixesAllThreeFlowKinds) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const auto r =
      run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.flows, 0u);
  EXPECT_EQ(r.internal_flows + r.boundary_flows + r.external_flows, r.flows);
  EXPECT_GT(r.internal_flows, 0u);
  EXPECT_GT(r.boundary_flows, 0u);
  EXPECT_GT(r.external_flows, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.packet_events, 0u);
  EXPECT_GT(r.fluid_windows, 0u);
  EXPECT_GT(r.fluid_solves, 0u);
  EXPECT_EQ(r.region_switches, 4);
  // The set-up's full-graph path sampling is attributed: its BFS work is
  // counted, and its time is a part of table_build_s.
  EXPECT_GT(r.path_sample_work.rows_built, 0u);
  EXPECT_GT(r.path_sample_work.row_edge_visits, 0u);
  EXPECT_GT(r.path_sample_s, 0.0);
  EXPECT_LE(r.path_sample_s, r.table_build_s);
}

// Golden answer of the small cell: fluid rates feed every FCT, so any
// change to what a max-min solve returns (e.g. how the per-window problem
// is assembled) moves this hash. The determinism tests below only compare
// runs of the same build with each other.
TEST(Hybrid, SmallCellResultHashIsPinned) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const auto r =
      run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of);
  EXPECT_GT(r.fluid_solves, 0u);
  EXPECT_EQ(r.result_hash, 16421032291759785090ULL);
}

// The incremental-solve trigger: once the active flow set is stable and no
// boundary cap clamps, windows reuse the previous rates instead of
// re-solving — the property that keeps 100k-switch sweeps from paying a
// max-min solve every 200us of simulated time. A handful of long flows with
// a common start gives a long steady phase, so most windows must skip.
TEST(Hybrid, IncrementalTriggerSkipsSteadyWindows) {
  const auto d = topo::make_dring(6, 2, 2);
  std::vector<workload::FlowSpec> specs;
  const auto hosts = d.graph.total_servers();
  for (int i = 0; i < 6; ++i) {
    specs.push_back(workload::FlowSpec{
        static_cast<topo::HostId>(i % hosts),
        static_cast<topo::HostId>((i * 7 + 5) % hosts), 2'000'000, 0});
  }
  HybridConfig cfg;
  cfg.fct.seed = 3;
  cfg.fct.flowgen.window = units::kMillisecond;
  cfg.fct.drain_factor = 20.0;
  cfg.region_mode = RegionMode::kSupernodes;
  cfg.region_supernodes = {0, 1};
  const auto r =
      run_hybrid_experiment_flows(d.graph, specs, cfg, &d.supernode_of);
  EXPECT_EQ(r.completed, specs.size());
  EXPECT_GT(r.fluid_solves, 0u);
  EXPECT_GT(r.fluid_solves_skipped, r.fluid_solves);
}

TEST(Hybrid, ByteIdenticalAcrossIntraJobs) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const HybridPrint base =
      print(run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of));
  ASSERT_GT(base.completed, 0u);
  for (const int intra : {2, 4, 7}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    EXPECT_EQ(base, print(run_hybrid_experiment(d.graph, tm, small_cfg(intra),
                                                &d.supernode_of)));
  }
}

// On a 1-core CI box the auto thread count runs every shard on the
// caller; forcing one thread per shard exercises the real cross-thread
// handoff under the hybrid window loop (the TSAN preset interleaves this).
TEST(Hybrid, ByteIdenticalWithForcedReactorThreads) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const HybridPrint base =
      print(run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of));
  EXPECT_EQ(base,
            print(run_hybrid_experiment(
                d.graph, tm, small_cfg(4, /*reactor_threads=*/4),
                &d.supernode_of)));
}

TEST(Hybrid, KillAndResumeThroughBoundaryWindow) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const HybridPrint base =
      print(run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of));
  for (const int intra : {1, 2, 4}) {
    SCOPED_TRACE("intra_jobs=" + std::to_string(intra));
    const std::string path = tmp_path("resume" + std::to_string(intra));
    util::remove_file(path);

    // First run: cancel at the first checkpointed window boundary — the
    // snapshot is taken mid-run, with boundary sources holding live pacing
    // state and fluid flows partially drained.
    auto cfg = small_cfg(intra);
    cfg.fct.checkpoint.path = path;
    cfg.fct.checkpoint.cancel = [] { return true; };
    const auto cancelled =
        run_hybrid_experiment(d.graph, tm, cfg, &d.supernode_of);
    EXPECT_FALSE(cancelled.finished);
    ASSERT_TRUE(util::file_exists(path));

    auto cfg2 = small_cfg(intra);
    cfg2.fct.checkpoint.path = path;
    cfg2.fct.checkpoint.resume = true;
    const auto resumed =
        run_hybrid_experiment(d.graph, tm, cfg2, &d.supernode_of);
    EXPECT_TRUE(resumed.finished);
    EXPECT_EQ(base, print(resumed));
    util::remove_file(path);
  }
}

TEST(Hybrid, AuditedSegmentedRunMatches) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const HybridPrint base =
      print(run_hybrid_experiment(d.graph, tm, small_cfg(1), &d.supernode_of));
  auto cfg = small_cfg(2);
  cfg.fct.checkpoint.audit = true;
  EXPECT_EQ(base,
            print(run_hybrid_experiment(d.graph, tm, cfg, &d.supernode_of)));
}

// Hot set = the whole graph: every flow is internal, the boundary layer and
// fluid solver never engage, and the per-flow FCTs must equal the pure
// packet experiment exactly (same seed protocol, same construction order).
TEST(Hybrid, WholeGraphRegionReducesToPurePacket) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);

  auto cfg = small_cfg(1);
  cfg.region_mode = RegionMode::kSwitches;
  cfg.region_switches.clear();
  for (topo::NodeId n = 0; n < d.graph.num_switches(); ++n)
    cfg.region_switches.push_back(n);
  const auto hybrid = run_hybrid_experiment(d.graph, tm, cfg);
  EXPECT_EQ(hybrid.internal_flows, hybrid.flows);
  EXPECT_EQ(hybrid.boundary_flows, 0u);
  EXPECT_EQ(hybrid.external_flows, 0u);
  EXPECT_EQ(hybrid.region_switches, d.graph.num_switches());
  EXPECT_EQ(hybrid.cut_links, 0);

  FctConfig fcfg = cfg.fct;
  const auto packet = run_fct_experiment(d.graph, tm, fcfg);
  EXPECT_EQ(hybrid.flows, packet.flows);
  EXPECT_EQ(hybrid.completed, packet.completed);
  EXPECT_DOUBLE_EQ(hybrid.median_ms(), packet.median_ms());
  EXPECT_DOUBLE_EQ(hybrid.p99_ms(), packet.p99_ms());
  EXPECT_EQ(hybrid.queue_drops, packet.queue_drops);
  EXPECT_EQ(hybrid.retransmits, packet.retransmits);
}

// Calibration envelope: with a real partial region, the hybrid median and
// p99 FCT stay within 2x of pure-packet on the small cell, and neither side
// loses flows. bench_hybrid measures the actual error (typically well under
// this bound — see results/BENCH_hybrid.json); the test pins the documented
// worst case so a regression in the boundary layer cannot hide.
TEST(Hybrid, CalibrationWithinDocumentedTolerance) {
  const auto d = topo::make_dring(6, 2, 2);
  const auto tm = workload::RackTm::uniform(d.graph);
  const auto cfg = small_cfg(1);
  const auto hybrid = run_hybrid_experiment(d.graph, tm, cfg, &d.supernode_of);
  const auto packet = run_fct_experiment(d.graph, tm, cfg.fct);
  ASSERT_GT(packet.completed, 0u);
  EXPECT_EQ(hybrid.flows, packet.flows);
  // The fluid halves have no loss or slow start, so hybrid may complete
  // flows the packet run strands in the drain window — but never fewer.
  EXPECT_GE(hybrid.completed, packet.completed);
  const double kTol = 2.0;  // documented calibration envelope (ratio)
  EXPECT_GT(hybrid.median_ms(), packet.median_ms() / kTol);
  EXPECT_LT(hybrid.median_ms(), packet.median_ms() * kTol);
  EXPECT_GT(hybrid.p99_ms(), packet.p99_ms() / kTol);
  EXPECT_LT(hybrid.p99_ms(), packet.p99_ms() * kTol);
}

// kAuto grows a connected hot set of the requested size from the demand of
// a prior fluid pass, deterministically.
TEST(Hybrid, AutoRegionIsConnectedAndDeterministic) {
  const auto g = topo::make_rrg(12, 4, 2, /*seed=*/3);
  const auto tm = workload::RackTm::uniform(g);
  HybridConfig cfg;
  cfg.fct.seed = 5;
  cfg.fct.flowgen.offered_load_bps = 20e9;
  cfg.fct.flowgen.window = units::kMillisecond;
  cfg.fct.drain_factor = 8.0;
  cfg.region_mode = RegionMode::kAuto;
  cfg.auto_region_switches = 4;
  const auto a = run_hybrid_experiment(g, tm, cfg);
  const auto b = run_hybrid_experiment(g, tm, cfg);
  EXPECT_EQ(a.region_switches, 4);
  EXPECT_GT(a.cut_links, 0);
  EXPECT_EQ(print(a), print(b));
}

// The region-cut primitives themselves: exact cut-link sets and gateway
// host placement on a hand-checkable topology.
TEST(Hybrid, RegionCutAndGateways) {
  const auto g = topo::make_leaf_spine(4, 2);  // leaves 0..5, spines 6..7
  const auto cut = topo::region_from_switches(g, {6});
  EXPECT_EQ(cut.hot, (std::vector<topo::NodeId>{6}));
  // Spine 6 links to every leaf: 6 cut links, inside endpoint always 6.
  EXPECT_EQ(cut.cut.size(), 6u);
  for (const auto& c : cut.cut) EXPECT_EQ(c.inside, 6);

  const auto rg = topo::build_region_graph(g, cut);
  EXPECT_EQ(rg.graph.num_switches(), 1);
  EXPECT_TRUE(rg.graph.connected());
  // Spines carry no servers, so every region host is a gateway.
  EXPECT_EQ(rg.graph.total_servers(), 6);
  EXPECT_EQ(rg.gateway_host.size(), 6u);
  for (std::size_t i = 0; i < rg.gateway_host.size(); ++i)
    EXPECT_EQ(rg.gateway_host[i], static_cast<topo::HostId>(i));
}

}  // namespace
}  // namespace spineless::core
