// Integration tests: small but complete runs of the paper's experiments,
// asserting the *qualitative* claims (who wins) rather than absolute
// numbers.
#include <gtest/gtest.h>

#include <algorithm>

#include "../routing/path_checks.h"
#include "core/fct_experiment.h"
#include "routing/paths.h"
#include "topo/analysis.h"
#include "core/scenario.h"
#include "core/throughput_experiment.h"
#include "routing/bfs_sampler.h"
#include "workload/flows.h"

namespace spineless::core {
namespace {

FctConfig tiny_fct_config() {
  FctConfig cfg;
  cfg.flowgen.offered_load_bps = workload::spine_offered_load_bps(
      6, 2, 10e9, /*utilization=*/0.3);
  cfg.flowgen.window = 2 * units::kMillisecond;
  cfg.seed = 7;
  return cfg;
}

TEST(FctExperiment, CompletesNearlyAllFlowsOnLeafSpine) {
  const auto g = topo::make_leaf_spine(6, 2);
  const auto tm = workload::RackTm::uniform(g);
  const auto r = run_fct_experiment(g, tm, tiny_fct_config());
  EXPECT_GT(r.flows, 50u);
  EXPECT_GE(static_cast<double>(r.completed),
            0.95 * static_cast<double>(r.flows));
  EXPECT_GT(r.median_ms(), 0.0);
  EXPECT_GE(r.p99_ms(), r.median_ms());
}

TEST(FctExperiment, DeterministicForSeed) {
  const auto g = topo::make_leaf_spine(6, 2);
  const auto tm = workload::RackTm::uniform(g);
  const auto a = run_fct_experiment(g, tm, tiny_fct_config());
  const auto b = run_fct_experiment(g, tm, tiny_fct_config());
  EXPECT_EQ(a.flows, b.flows);
  EXPECT_DOUBLE_EQ(a.median_ms(), b.median_ms());
  EXPECT_DOUBLE_EQ(a.p99_ms(), b.p99_ms());
}

TEST(FctExperiment, RandomPlacementChangesOutcome) {
  const auto g = topo::flatten_leaf_spine(6, 2, 1);
  const auto tm = workload::RackTm::fb_like_skewed(g, 3);
  auto cfg = tiny_fct_config();
  const auto base = run_fct_experiment(g, tm, cfg);
  cfg.random_placement = true;
  const auto rp = run_fct_experiment(g, tm, cfg);
  // RP shuffles the host identity space (and advances the RNG), so the
  // realized flow set and FCTs differ; the experiment itself still runs
  // to (near-)completion in both variants.
  EXPECT_NE(base.median_ms(), rp.median_ms());
  EXPECT_GE(static_cast<double>(base.completed),
            0.9 * static_cast<double>(base.flows));
  EXPECT_GE(static_cast<double>(rp.completed),
            0.9 * static_cast<double>(rp.flows));
}

// One hot rack sending to every other rack — the bursting-rack pattern of
// §3 ("micro bursts where a rack has a lot of traffic to send ... very few
// racks are bursting at any given point").
workload::RackTm outcast_tm(const topo::Graph& g, topo::NodeId hot) {
  workload::RackTm tm(g.num_switches());
  for (topo::NodeId j = 0; j < g.num_switches(); ++j) {
    if (j == hot || g.servers(j) == 0) continue;
    tm.at(hot, j) = static_cast<double>(g.servers(j));
  }
  return tm;
}

TEST(FctExperiment, FlatMedianBeatsLeafSpineWhenOneRackBursts) {
  // §3's oversubscription-masking argument in isolation: a single rack
  // bursting at 44 Gbps — above the leaf-spine rack's 4x10G uplinks,
  // below the flat rack's ~6-7 network links. The flat network's median
  // FCT wins decisively. (The p99 at this toy scale is dominated by
  // single elephant flows, which are path-rate-limited on every topology;
  // the tail claims are exercised by the Figure-4 reproduction below.)
  const Scenario s = Scenario::small();  // x=12, y=4
  FctConfig cfg;
  cfg.flowgen.offered_load_bps = 44e9;
  cfg.flowgen.window = 2 * units::kMillisecond;
  cfg.seed = 7;
  cfg.net.mode = sim::RoutingMode::kEcmp;

  const auto ls = s.leaf_spine();
  const auto ls_res = run_fct_experiment(ls, outcast_tm(ls, 0), cfg);

  const auto rrg = s.rrg();
  cfg.net.mode = sim::RoutingMode::kShortestUnion;
  const auto rrg_res = run_fct_experiment(rrg, outcast_tm(rrg, 0), cfg);

  EXPECT_LT(rrg_res.median_ms(), ls_res.median_ms());
  EXPECT_LT(rrg_res.p99_ms(), 2.0 * ls_res.p99_ms());  // tail sanity bound
}

TEST(FctExperiment, Figure4ShapeOnSkewedWorkload) {
  // The full Figure-4 shape at medium scale, FB-like skewed TM at 30%
  // spine utilization:
  //  * flat topologies beat leaf-spine on median FCT,
  //  * DRing with plain ECMP has a catastrophic p99 (too few paths),
  //  * Shortest-Union(2) repairs DRing's tail below leaf-spine's.
  const Scenario s{.x = 24, .y = 8, .dring_supernodes = 10, .seed = 1};
  FctConfig cfg;
  cfg.flowgen.offered_load_bps =
      workload::spine_offered_load_bps(s.x, s.y, 10e9, 0.3);
  cfg.flowgen.window = 2 * units::kMillisecond;
  cfg.seed = 7;

  const auto ls = s.leaf_spine();
  cfg.net.mode = sim::RoutingMode::kEcmp;
  const auto ls_res =
      run_fct_experiment(ls, workload::RackTm::fb_like_skewed(ls, 11), cfg);

  const auto dring = s.dring();
  const auto dring_tm = workload::RackTm::fb_like_skewed(dring.graph, 11);
  cfg.net.mode = sim::RoutingMode::kEcmp;
  const auto dr_ecmp = run_fct_experiment(dring.graph, dring_tm, cfg);
  cfg.net.mode = sim::RoutingMode::kShortestUnion;
  const auto dr_su2 = run_fct_experiment(dring.graph, dring_tm, cfg);

  // Flat medians win.
  EXPECT_LT(dr_ecmp.median_ms(), ls_res.median_ms());
  EXPECT_LT(dr_su2.median_ms(), ls_res.median_ms());
  // ECMP's missing path diversity shows in DRing's tail; SU(2) fixes it.
  EXPECT_LT(dr_su2.p99_ms(), dr_ecmp.p99_ms());
  EXPECT_LT(dr_su2.p99_ms(), ls_res.p99_ms());
}

TEST(CsThroughput, FlowCountAndRatesPositive) {
  const auto g = topo::make_dring(5, 2, 4).graph;
  ThroughputConfig cfg;
  const auto r = run_cs_throughput(g, 8, 8, cfg);
  EXPECT_EQ(r.flows, 64u);
  EXPECT_GT(r.mean_bps, 0.0);
  EXPECT_LE(r.mean_bps, 10e9 + 1);
}

TEST(CsThroughput, IncastBottlenecksAtReceiverNic) {
  const auto g = topo::make_dring(5, 2, 4).graph;
  ThroughputConfig cfg;
  // Many clients, one server: total capped by the server NIC.
  const auto r = run_cs_throughput(g, 12, 1, cfg);
  EXPECT_NEAR(r.total_bps, 10e9, 1e6);
}

TEST(CsThroughput, ShortestUnionHelpsSkewedCell) {
  // A skewed C-S cell on DRing: few client racks bursting. SU(2) should
  // match or beat ECMP.
  const auto g = topo::make_dring(6, 2, 6).graph;
  ThroughputConfig ecmp, su;
  ecmp.mode = sim::RoutingMode::kEcmp;
  su.mode = sim::RoutingMode::kShortestUnion;
  const auto a = run_cs_throughput(g, 6, 30, ecmp);
  const auto b = run_cs_throughput(g, 6, 30, su);
  EXPECT_GE(b.total_bps, 0.95 * a.total_bps);
}

TEST(CsThroughput, DRingBeatsLeafSpineOnSkewedCells) {
  // Figure 5's shape: for |C| << |S| the flat DRing outperforms the
  // equal-equipment leaf-spine, approaching the 2x UDF prediction.
  const Scenario s{.x = 6, .y = 2, .dring_supernodes = 10, .seed = 1};
  const auto ls = s.leaf_spine();
  const auto dr = s.dring().graph;
  ThroughputConfig cfg;
  cfg.mode = sim::RoutingMode::kShortestUnion;
  // One bursting rack's worth of clients, servers spread wide.
  const int c = 4, srv = 24;
  const auto ls_res = run_cs_throughput(ls, c, srv, cfg);
  const auto dr_res = run_cs_throughput(dr, c, srv, cfg);
  EXPECT_GT(dr_res.total_bps, ls_res.total_bps);
}

TEST(PathSampler, EcmpPathsAreShortest) {
  const auto g = topo::make_dring(6, 2, 1).graph;
  routing::BfsSampler sampler(g, 1);
  Rng rng(3);
  const auto dist = topo::all_pairs_distances(g);
  for (int trial = 0; trial < 200; ++trial) {
    const auto src = static_cast<topo::NodeId>(rng.uniform(
        static_cast<std::uint64_t>(g.num_switches())));
    const auto dst = static_cast<topo::NodeId>(rng.uniform(
        static_cast<std::uint64_t>(g.num_switches())));
    if (src == dst) continue;
    const auto p = sampler.sample(src, dst, rng);
    EXPECT_EQ(routing::path_length(p),
              dist[static_cast<std::size_t>(src)]
                  [static_cast<std::size_t>(dst)]);
  }
}

TEST(PathSampler, ShortestUnionPathsWithinSuSet) {
  const auto g = topo::make_dring(5, 2, 1).graph;
  routing::BfsSampler sampler(g, 2);
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const auto src = static_cast<topo::NodeId>(rng.uniform(
        static_cast<std::uint64_t>(g.num_switches())));
    const auto dst = static_cast<topo::NodeId>(rng.uniform(
        static_cast<std::uint64_t>(g.num_switches())));
    if (src == dst) continue;
    const auto p = sampler.sample(src, dst, rng);
    const auto su = routing::shortest_union_paths(g, src, dst, 2, 8192);
    EXPECT_TRUE(std::find(su.begin(), su.end(), p) != su.end());
  }
}

TEST(FluidFctExperiment, CompletesAndTracksPacketOrdering) {
  const auto g = topo::make_dring(6, 2, 6).graph;
  core::FctConfig cfg;
  cfg.net.mode = sim::RoutingMode::kShortestUnion;
  cfg.flowgen.offered_load_bps = 1e9 * g.total_servers() * 0.3;
  cfg.flowgen.window = 2 * units::kMillisecond;
  cfg.seed = 9;
  const auto tm = workload::RackTm::uniform(g);
  const auto fluid = core::run_fct_experiment_fluid(g, tm, cfg);
  const auto packet = core::run_fct_experiment(g, tm, cfg);
  EXPECT_EQ(fluid.flows, packet.flows);  // identical generated workload
  EXPECT_GE(static_cast<double>(fluid.completed),
            0.99 * static_cast<double>(fluid.flows));
  // No slow start / RTT in the fluid model: its FCTs lower-bound TCP's.
  EXPECT_LE(fluid.median_ms(), packet.median_ms());
  EXPECT_GT(fluid.median_ms(), 0.0);
}

TEST(FluidFctExperiment, DeterministicPerSeed) {
  const auto g = topo::make_dring(5, 2, 4).graph;
  core::FctConfig cfg;
  cfg.flowgen.offered_load_bps = 20e9;
  cfg.flowgen.window = units::kMillisecond;
  cfg.seed = 4;
  const auto tm = workload::RackTm::uniform(g);
  const auto a = core::run_fct_experiment_fluid(g, tm, cfg);
  const auto b = core::run_fct_experiment_fluid(g, tm, cfg);
  EXPECT_DOUBLE_EQ(a.median_ms(), b.median_ms());
  EXPECT_DOUBLE_EQ(a.p99_ms(), b.p99_ms());
}

TEST(CsThroughputPacket, TracksFluidRatio) {
  // The packet-measured DRing/leaf-spine ratio for a skewed cell lands
  // near the fluid model's (the paper's own Fig. 5 methodology).
  const Scenario s{.x = 12, .y = 4, .dring_supernodes = 10, .seed = 1};
  const auto ls = s.leaf_spine();
  const auto dr = s.dring().graph;
  core::ThroughputConfig cfg;
  cfg.seed = 3;
  cfg.max_pairs = 500;
  const Time duration = 3 * units::kMillisecond;
  const int c = 8, srv = 40;

  cfg.mode = sim::RoutingMode::kEcmp;
  const double ls_fluid = core::run_cs_throughput(ls, c, srv, cfg).mean_bps;
  const double ls_packet =
      core::run_cs_throughput_packet(ls, c, srv, cfg, duration).mean_bps;
  cfg.mode = sim::RoutingMode::kShortestUnion;
  const double dr_fluid = core::run_cs_throughput(dr, c, srv, cfg).mean_bps;
  const double dr_packet =
      core::run_cs_throughput_packet(dr, c, srv, cfg, duration).mean_bps;

  const double fluid_ratio = dr_fluid / ls_fluid;
  const double packet_ratio = dr_packet / ls_packet;
  EXPECT_GT(packet_ratio, 1.0);  // flat wins the skewed cell in both
  EXPECT_NEAR(packet_ratio, fluid_ratio, 0.35 * fluid_ratio);
  // TCP goodput is below the fluid ideal but the same order.
  EXPECT_LT(dr_packet, dr_fluid * 1.05);
  EXPECT_GT(dr_packet, dr_fluid * 0.5);
}

TEST(PathSampler, SameTorReturnsTrivialPath) {
  const auto g = topo::make_dring(5, 2, 2).graph;
  routing::BfsSampler sampler(g, 1);
  Rng rng(1);
  EXPECT_EQ(sampler.sample(3, 3, rng), routing::Path{3});
}

}  // namespace
}  // namespace spineless::core
