#include "util/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/fct_experiment.h"
#include "topo/builders.h"
#include "workload/tm.h"

namespace spineless::core {
namespace {

TEST(Runner, MapReturnsResultsInIndexOrder) {
  util::Runner runner(4);
  const auto out = runner.map(100, [](std::size_t i) { return 3 * i + 1; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(Runner, SingleJobRunsInline) {
  util::Runner runner(1);
  EXPECT_EQ(runner.jobs(), 1);
  // Serial execution visits cells strictly in order.
  std::vector<std::size_t> order;
  runner.map(10, [&](std::size_t i) {
    order.push_back(i);
    return i;
  });
  std::vector<std::size_t> want(10);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(order, want);
}

TEST(Runner, AllCellsRunExactlyOnce) {
  util::Runner runner(8);
  std::vector<std::atomic<int>> hits(1000);
  runner.map(hits.size(), [&](std::size_t i) { return ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Runner, EmptyBatchIsNoOp) {
  util::Runner runner(4);
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(Runner, ReusableAcrossBatches) {
  util::Runner runner(3);
  for (int round = 0; round < 5; ++round) {
    const auto out =
        runner.map(17, [round](std::size_t i) { return i + 100 * round; });
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out[i], i + 100 * static_cast<std::size_t>(round));
  }
}

TEST(Runner, BackToBackBatchStress) {
  // Regression: a straggler worker from batch k can still be spinning in
  // try_take() when batch k+1's tasks are pushed, and may run one of them
  // immediately — it must observe the new batch's body and count, never
  // the stale (nulled) state from its own batch. Many tiny batches
  // maximize the overlap window.
  util::Runner runner(8);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<int> sum{0};
    runner.map(16, [&](std::size_t i) {
      sum += static_cast<int>(i);
      return 0;
    });
    EXPECT_EQ(sum.load(), 120);
  }
}

TEST(Runner, FirstExceptionPropagates) {
  util::Runner runner(4);
  EXPECT_THROW(runner.map(50,
                          [](std::size_t i) {
                            if (i == 13) throw std::runtime_error("cell 13");
                            return i;
                          }),
               std::runtime_error);
}

TEST(Runner, DefaultJobsHonorsEnvironment) {
  // Cannot mutate the environment safely under the test runner, but the
  // value must at least be a positive worker count.
  EXPECT_GE(util::default_jobs(), 1);
}

// The tentpole guarantee: a sweep of real packet-level experiment cells
// produces identical FctResults with 1 worker and with 8, because each
// cell's randomness derives only from its index.
TEST(Runner, FctSweepIsDeterministicAcrossThreadCounts) {
  const topo::Graph g = topo::make_leaf_spine(6, 2);
  const workload::RackTm tm = workload::RackTm::uniform(g);

  auto run_cells = [&](int jobs) {
    util::Runner runner(jobs);
    return runner.map(6, [&](std::size_t i) {
      FctConfig cfg;
      cfg.flowgen.offered_load_bps = 0.2 * 12 * units::gbps(10);
      cfg.flowgen.window = 2 * units::kMillisecond;
      // bench_fig4_fct's per-repetition seed: base + 99 + rep * 1000.
      cfg.seed = 7 + 99 + i * 1000;
      return run_fct_experiment(g, tm, cfg);
    });
  };

  const auto serial = run_cells(1);
  const auto parallel = run_cells(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].flows, parallel[i].flows) << "cell " << i;
    EXPECT_EQ(serial[i].completed, parallel[i].completed) << "cell " << i;
    EXPECT_EQ(serial[i].events, parallel[i].events) << "cell " << i;
    EXPECT_EQ(serial[i].queue_drops, parallel[i].queue_drops) << "cell " << i;
    EXPECT_EQ(serial[i].retransmits, parallel[i].retransmits) << "cell " << i;
    EXPECT_EQ(serial[i].max_queue_bytes, parallel[i].max_queue_bytes)
        << "cell " << i;
    // FCT distributions must match bit-for-bit, not within tolerance.
    EXPECT_EQ(serial[i].fct_ms.median(), parallel[i].fct_ms.median())
        << "cell " << i;
    EXPECT_EQ(serial[i].fct_ms.p99(), parallel[i].fct_ms.p99())
        << "cell " << i;
    EXPECT_EQ(serial[i].fct_ms.mean(), parallel[i].fct_ms.mean())
        << "cell " << i;
  }
}

}  // namespace
}  // namespace spineless::core
