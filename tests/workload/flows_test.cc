#include "workload/flows.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "topo/builders.h"

namespace spineless::workload {
namespace {

FlowGenConfig small_config() {
  FlowGenConfig cfg;
  cfg.offered_load_bps = 1e9;
  cfg.window = 10 * units::kMillisecond;
  return cfg;
}

TEST(GenerateFlows, FlowCountMatchesOfferedLoad) {
  const Graph g = topo::make_dring(5, 2, 4).graph;
  TmSampler sampler(g, RackTm::uniform(g));
  Rng rng(1);
  const auto cfg = small_config();
  const auto flows = generate_flows(sampler, cfg, rng);
  const double target = cfg.offered_load_bps / 8.0 * 0.010;
  const auto expected_n = static_cast<std::size_t>(
      std::round(target / expected_truncated_flow_bytes()));
  EXPECT_EQ(flows.size(), expected_n);
  // Realized volume is heavy-tailed but should land within a loose band
  // around the target.
  double bytes = 0;
  for (const auto& f : flows) bytes += static_cast<double>(f.bytes);
  EXPECT_GT(bytes, 0.1 * target);
  EXPECT_LT(bytes, 10.0 * target);
}

TEST(GenerateFlows, ExpectedTruncatedMeanBelowNominal) {
  // Truncation at 30 MB trims the alpha=1.05 tail, so the effective mean
  // sits below the nominal 100 KB but stays the right order of magnitude.
  const double m = expected_truncated_flow_bytes();
  EXPECT_LT(m, 100e3);
  EXPECT_GT(m, 20e3);
}

TEST(GenerateFlows, StartTimesWithinWindowAndSorted) {
  const Graph g = topo::make_dring(5, 2, 4).graph;
  TmSampler sampler(g, RackTm::uniform(g));
  Rng rng(2);
  const auto cfg = small_config();
  const auto flows = generate_flows(sampler, cfg, rng);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GE(flows[i].start, 0);
    EXPECT_LT(flows[i].start, cfg.window);
    if (i > 0) {
      EXPECT_GE(flows[i].start, flows[i - 1].start);
    }
  }
}

TEST(GenerateFlows, SizesWithinTruncationBounds) {
  const Graph g = topo::make_dring(5, 2, 4).graph;
  TmSampler sampler(g, RackTm::uniform(g));
  Rng rng(3);
  const auto cfg = small_config();
  for (const auto& f : generate_flows(sampler, cfg, rng)) {
    EXPECT_GE(f.bytes, kMinFlowBytes);
    EXPECT_LE(f.bytes, kMaxFlowBytes);
  }
}

TEST(GenerateFlows, MeanSizeRoughlyPareto) {
  // alpha=1.05 truncated at 30 MB has a fat but bounded tail; the sample
  // mean should land within a loose band around 100 KB.
  const Graph g = topo::make_dring(5, 2, 4).graph;
  TmSampler sampler(g, RackTm::uniform(g));
  Rng rng(4);
  auto cfg = small_config();
  cfg.offered_load_bps = 40e9;  // many flows for a stable estimate
  const auto flows = generate_flows(sampler, cfg, rng);
  double bytes = 0;
  for (const auto& f : flows) bytes += static_cast<double>(f.bytes);
  const double mean = bytes / static_cast<double>(flows.size());
  EXPECT_GT(mean, 20e3);
  EXPECT_LT(mean, 400e3);
}

TEST(GenerateFlows, DeterministicPerSeed) {
  const Graph g = topo::make_dring(5, 2, 4).graph;
  TmSampler sampler(g, RackTm::uniform(g));
  Rng r1(7), r2(7);
  const auto cfg = small_config();
  const auto a = generate_flows(sampler, cfg, r1);
  const auto b = generate_flows(sampler, cfg, r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].start, b[i].start);
  }
}

TEST(Flows, GeneratedFlowsArePinned) {
  // Pins every FlowSpec that generate_flows draws, for two TMs at two
  // loads, and the bit pattern of the expected truncated flow size, so a
  // change to the Pareto parameters, the truncation bounds or the draw
  // order that moves one byte or one picosecond fails here.
  const Graph g = topo::make_dring(5, 2, 4).graph;
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t v) { h = splitmix64(h ^ v); };
  for (const RackTm& tm : {RackTm::uniform(g), RackTm::fb_like_skewed(g, 3)}) {
    const TmSampler sampler(g, tm);
    for (const double load : {1e9, 40e9}) {
      Rng rng(0x5eed);
      auto cfg = small_config();
      cfg.offered_load_bps = load;
      const auto flows = generate_flows(sampler, cfg, rng);
      mix(flows.size());
      for (const FlowSpec& f : flows) {
        mix(static_cast<std::uint64_t>(f.src));
        mix(static_cast<std::uint64_t>(f.dst));
        mix(static_cast<std::uint64_t>(f.bytes));
        mix(static_cast<std::uint64_t>(f.start));
      }
    }
  }
  EXPECT_EQ(h, 12958928447254596444ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(expected_truncated_flow_bytes()),
            4675524825218683639ull);
}

TEST(SpineOfferedLoad, ClosedForm) {
  // leaf-spine(48, 16): 64 leaves x 16 uplinks x 10G, at 30%.
  EXPECT_DOUBLE_EQ(spine_offered_load_bps(48, 16, 10e9, 0.3),
                   0.3 * 64 * 16 * 10e9);
}

TEST(ParticipatingFraction, RackToRackVsUniform) {
  const Graph g = topo::make_dring(5, 2, 4).graph;  // 10 racks
  EXPECT_DOUBLE_EQ(
      participating_fraction(g, RackTm::rack_to_rack(g, 0, 5)), 0.1);
  EXPECT_DOUBLE_EQ(participating_fraction(g, RackTm::uniform(g)), 1.0);
}

TEST(ParticipatingFraction, IgnoresServerlessSwitches) {
  const Graph g = topo::make_leaf_spine(4, 2);  // 6 leaves + 2 spines
  EXPECT_DOUBLE_EQ(
      participating_fraction(g, RackTm::rack_to_rack(g, 0, 1)),
      1.0 / 6.0);
}

}  // namespace
}  // namespace spineless::workload
