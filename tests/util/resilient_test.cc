// Self-healing runner tests: retries on crashing cells, watchdog
// cancellation of hung cells, and graceful degradation — a sweep with one
// crashing and one hanging cell still finishes, reporting both as failed
// while every other cell's result is intact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/resilient.h"
#include "util/runner.h"

namespace spineless::util {
namespace {


TEST(RetryPolicy, BackoffIsCappedExponential) {
  RetryPolicy p;
  p.backoff_base_s = 0.25;
  p.backoff_cap_s = 1.0;
  EXPECT_DOUBLE_EQ(p.backoff_for(1), 0.25);
  EXPECT_DOUBLE_EQ(p.backoff_for(2), 0.5);
  EXPECT_DOUBLE_EQ(p.backoff_for(3), 1.0);
  EXPECT_DOUBLE_EQ(p.backoff_for(10), 1.0);  // capped
}

TEST(RunCellAttempts, FlakyCellSucceedsOnRetrySameInputs) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_s = 0.001;
  Watchdog dog(1, policy);
  int calls = 0;
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "cell0", [&](CellContext&) {
        if (++calls < 3) throw std::runtime_error("transient");
        return 42;
      });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.value, 42);
  EXPECT_EQ(out.status.attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(RunCellAttempts, CrashingCellReportsFailedWithError) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_s = 0.001;
  Watchdog dog(1, policy);
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "cell m=7 seed=3", [&](CellContext&) -> int {
        throw std::runtime_error("segfault simulated");
      });
  EXPECT_EQ(out.status.state, CellState::kFailed);
  EXPECT_EQ(out.status.attempts, 2);
  // The error names the cell and the final attempt.
  EXPECT_NE(out.status.error.find("cell m=7 seed=3"), std::string::npos);
  EXPECT_NE(out.status.error.find("attempt 2/2"), std::string::npos);
  EXPECT_NE(out.status.error.find("segfault simulated"), std::string::npos);
}

TEST(RunCellAttempts, WatchdogCancelsHangingCell) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.progress_timeout_s = 0.05;  // no progress for 50ms => stuck
  Watchdog dog(1, policy);
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "hung", [&](CellContext& ctx) {
        // A "hung" cell: heartbeats with a progress counter that never
        // advances, polling cancellation like run_fct_experiment does.
        while (!ctx.canceled()) {
          ctx.heartbeat(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return 0;
      });
  EXPECT_EQ(out.status.state, CellState::kFailed);
  EXPECT_TRUE(out.status.timed_out);
  EXPECT_NE(out.status.error.find("watchdog"), std::string::npos);
}

TEST(RunCellAttempts, AdvancingProgressKeepsWatchdogQuiet) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.progress_timeout_s = 0.2;
  Watchdog dog(1, policy);
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "busy", [&](CellContext& ctx) {
        for (std::uint64_t i = 1; i <= 50; ++i) {
          ctx.heartbeat(i);  // strictly advancing => never stuck
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return 7;
      });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.value, 7);
}

TEST(RunCellAttempts, ExternalInterruptIsNotRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::atomic<bool> sigint{false};
  policy.interrupted = [&] { return sigint.load(); };
  Watchdog dog(1, policy);
  int calls = 0;
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "cell0", [&](CellContext& ctx) {
        ++calls;
        sigint.store(true);  // ^C arrives mid-cell
        while (!ctx.canceled()) {
        }
        return 0;
      });
  EXPECT_EQ(out.status.state, CellState::kInterrupted);
  EXPECT_EQ(calls, 1);  // an interrupt never burns retry attempts
}

TEST(RunCells, MixedSweepDegradesGracefully) {
  // One crashing cell, one hanging cell, six healthy cells: the sweep must
  // finish, mark exactly the two bad cells failed, and return every
  // healthy result intact in index order.
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base_s = 0.001;
  policy.progress_timeout_s = 0.05;
  Runner runner(4);
  const auto outcomes = run_cells(
      runner, 8, policy,
      [&](std::size_t i, CellContext& ctx) -> int {
        if (i == 2) throw std::runtime_error("boom");
        if (i == 5) {
          while (!ctx.canceled()) {
            ctx.heartbeat(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          return -1;
        }
        return static_cast<int>(i) * 10;
      },
      [](std::size_t i) { return "cell " + std::to_string(i); });
  ASSERT_EQ(outcomes.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    if (i == 2 || i == 5) {
      EXPECT_EQ(outcomes[i].status.state, CellState::kFailed);
      EXPECT_EQ(outcomes[i].status.attempts, 2);
      EXPECT_FALSE(outcomes[i].status.error.empty());
    } else {
      EXPECT_TRUE(outcomes[i].status.ok());
      EXPECT_EQ(outcomes[i].value, static_cast<int>(i) * 10);
    }
  }
}

TEST(Watchdog, WallClockTimeoutCancelsLongCell) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.wall_timeout_s = 0.05;
  Watchdog dog(1, policy);
  const auto start = std::chrono::steady_clock::now();
  const auto out = run_cell_attempts(
      dog.slot(0), policy, "slow", [&](CellContext& ctx) {
        while (!ctx.canceled()) {
          // Progress advances, but the wall-clock budget still applies.
          ctx.heartbeat(static_cast<std::uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return 0;
      });
  EXPECT_EQ(out.status.state, CellState::kFailed);
  EXPECT_TRUE(out.status.timed_out);
  // Canceled promptly, not after some multiple of the timeout.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
}

}  // namespace
}  // namespace spineless::util
