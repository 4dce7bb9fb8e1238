// Self-healing execution of sweep cells: per-cell wall-clock timeouts, an
// event-progress watchdog (a cell whose event counter stops advancing is
// stuck even if it is burning CPU), capped-exponential-backoff retries on
// the same seed, and graceful degradation — an unrecoverable cell reports
// status "failed" with its error instead of aborting the sweep.
//
// Cancellation is cooperative: the watchdog cannot kill a thread portably,
// so it sets the cell's CancelToken and the cell is expected to poll it at
// its checkpoint boundaries (run_fct_experiment does; see CheckpointSpec).
// A cell that never polls will still be *reported* as timed out, but only
// once it returns on its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>


namespace spineless::util {

// One-way latch flipped by a watchdog (or signal handler) and polled by
// the running cell at its checkpoint boundaries.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool canceled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

struct RetryPolicy {
  int max_attempts = 1;           // total tries per cell (1 = no retry)
  double wall_timeout_s = 0;      // per-attempt wall clock; 0 = unlimited
  double progress_timeout_s = 0;  // max seconds without event progress
  double backoff_base_s = 0.25;   // sleep before attempt k: base * 2^(k-1)
  double backoff_cap_s = 5.0;     // ... capped here
  // External interruption (e.g. SIGINT): checked between attempts and
  // during backoff sleeps; an interrupted cell is not retried.
  std::function<bool()> interrupted;

  bool has_watchdog() const noexcept {
    return wall_timeout_s > 0 || progress_timeout_s > 0;
  }
  double backoff_for(int attempt) const noexcept;  // attempt is 1-based
};

// Per-cell live state shared between the cell's worker thread and the
// watchdog thread. All fields are atomics; the watchdog only ever reads
// them and flips `token`.
class CellSlot {
 public:
  // Worker side.
  void begin_attempt() noexcept;
  void end_attempt() noexcept;
  void heartbeat(std::uint64_t progress) noexcept;
  CancelToken token;

  // Watchdog side (seconds on a process-wide monotonic clock).
  bool active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }
  double started_s() const noexcept {
    return started_s_.load(std::memory_order_acquire);
  }
  double last_beat_s() const noexcept {
    return beat_s_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> active_{false};
  std::atomic<double> started_s_{0};
  std::atomic<double> beat_s_{0};
  std::atomic<std::uint64_t> progress_{0};
};

// Seconds since an arbitrary process-wide monotonic epoch.
double monotonic_s() noexcept;

// Owns the CellSlot array and, when the policy sets any timeout, a scanner
// thread that cancels overdue slots. With no timeouts configured it is just
// slot storage (no thread).
class Watchdog {
 public:
  Watchdog(std::size_t cells, const RetryPolicy& policy);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  CellSlot& slot(std::size_t i) noexcept { return slots_[i]; }

 private:
  void scan_loop();

  const RetryPolicy policy_;
  std::size_t n_;
  std::unique_ptr<CellSlot[]> slots_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// What a running cell sees: a heartbeat sink plus a combined cancellation
// view (watchdog token OR external interrupt).
class CellContext {
 public:
  CellContext(CellSlot& slot, const RetryPolicy& policy) noexcept
      : slot_(slot), policy_(policy) {}

  // Feed the progress watchdog: `progress` must be monotonically
  // non-decreasing (e.g. cumulative simulator events). A heartbeat that
  // does not advance it does not count as progress.
  void heartbeat(std::uint64_t progress) noexcept { slot_.heartbeat(progress); }

  bool canceled() const noexcept {
    return slot_.token.canceled() ||
           (policy_.interrupted && policy_.interrupted());
  }
  // True only for the external (user-interrupt) half of canceled().
  bool interrupted() const noexcept {
    return policy_.interrupted && policy_.interrupted();
  }

 private:
  CellSlot& slot_;
  const RetryPolicy& policy_;
};

enum class CellState {
  kOk,
  kFailed,       // exhausted its attempts (crash or timeout)
  kInterrupted,  // external interrupt; not a cell failure, never retried
};

struct CellStatus {
  CellState state = CellState::kOk;
  int attempts = 1;
  bool timed_out = false;  // the final failure came from the watchdog
  std::string error;
  bool ok() const noexcept { return state == CellState::kOk; }
};

template <typename R>
struct CellOutcome {
  R value{};
  CellStatus status;
};

namespace detail {
// Sleeps `seconds` in small increments, returning early (false) if the
// policy's external interrupt fires.
bool interruptible_sleep(double seconds, const RetryPolicy& policy);
}  // namespace detail

// Runs one cell's attempt loop under `slot`: try, classify (ok / thrown /
// watchdog-canceled / interrupted), back off, retry up to
// policy.max_attempts. Never throws out of the cell body — the error text
// (prefixed with `label`, which should carry the cell id and seed) lands in
// the returned status instead.
template <typename Fn>
auto run_cell_attempts(CellSlot& slot, const RetryPolicy& policy,
                       const std::string& label, Fn&& fn)
    -> CellOutcome<std::invoke_result_t<Fn&, CellContext&>> {
  using R = std::invoke_result_t<Fn&, CellContext&>;
  CellOutcome<R> out;
  CellContext ctx(slot, policy);
  for (int attempt = 1;; ++attempt) {
    out.status.attempts = attempt;
    slot.begin_attempt();
    std::string error;
    bool timed_out = false;
    bool done = false;
    try {
      R value = fn(ctx);
      if (ctx.interrupted()) {
        out.value = std::move(value);
        out.status.state = CellState::kInterrupted;
        done = true;
      } else if (slot.token.canceled()) {
        error = "watchdog timeout (wall or no event progress)";
        timed_out = true;
      } else {
        out.value = std::move(value);
        out.status.state = CellState::kOk;
        done = true;
      }
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }
    slot.end_attempt();
    if (done) return out;
    out.status.error = label + " attempt " + std::to_string(attempt) + "/" +
                       std::to_string(policy.max_attempts) + ": " + error;
    out.status.timed_out = timed_out;
    if (attempt >= policy.max_attempts) {
      out.status.state = CellState::kFailed;
      return out;
    }
    if (!detail::interruptible_sleep(policy.backoff_for(attempt), policy)) {
      out.status.state = CellState::kInterrupted;
      return out;
    }
  }
}

}  // namespace spineless::util
