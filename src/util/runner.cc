#include "util/runner.h"

#include <cstdlib>

#include "util/error.h"

namespace spineless::util {
namespace {

// Depth of parallel-region nesting on this thread. A Runner constructed at
// depth > 0 with Nested::kSerialize runs serially instead of multiplying
// the worker count.
thread_local int tl_parallel_depth = 0;

int clamp_jobs(int jobs, Runner::Nested nested) {
  if (jobs < 1) jobs = 1;
  if (nested == Runner::Nested::kSerialize && tl_parallel_depth > 0) return 1;
  return jobs;
}

}  // namespace

int default_jobs() {
  if (const char* env = std::getenv("SPINELESS_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ParallelRegion::ParallelRegion() { ++tl_parallel_depth; }
ParallelRegion::~ParallelRegion() { --tl_parallel_depth; }

Runner::Runner(int jobs, Nested nested) : jobs_(clamp_jobs(jobs, nested)) {
  queues_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i)
    queues_.push_back(std::make_unique<WorkQueue>());
  // Slot 0 is the calling thread; slots 1..jobs-1 get pool threads.
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i)
    threads_.emplace_back(
        [this, i] { worker_main(static_cast<std::size_t>(i)); });
}

Runner::~Runner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  batch_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Runner::run_batch(std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs_ == 1) {
    // Serial fast path: no queues, no locks — literally the loop a serial
    // driver would have written.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Publish the batch state BEFORE any task reaches a queue: a straggler
    // worker from the previous batch can still be inside try_take() and
    // will run a task the moment its push is visible. Each push releases
    // q.mu, so the taker's acquire of q.mu orders these stores before its
    // read of body_/remaining_.
    body_ = &body;
    remaining_ = n;
    first_error_ = nullptr;
    ++generation_;
    // Stripe cells round-robin across the worker slots so a sweep whose
    // expensive cells cluster (e.g. paper-scale topologies first) still
    // spreads them; stealing rebalances the rest.
    for (std::size_t i = 0; i < n; ++i) {
      WorkQueue& q = *queues_[i % static_cast<std::size_t>(jobs_)];
      std::lock_guard<std::mutex> qlock(q.mu);
      q.tasks.push_back(i);
    }
  }
  batch_cv_.notify_all();
  {
    ParallelRegion region;  // the caller is worker 0
    work(/*slot=*/0);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    body_ = nullptr;
    if (first_error_) std::rethrow_exception(first_error_);
  }
}

void Runner::worker_main(std::size_t slot) {
  ParallelRegion region;
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
    }
    work(slot);
  }
}

bool Runner::try_take(std::size_t slot, std::size_t* index) {
  // Own queue first (front = FIFO for cache-friendly cell order), then
  // steal from the back of the others.
  {
    WorkQueue& q = *queues_[slot];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *index = q.tasks.front();
      q.tasks.pop_front();
      return true;
    }
  }
  const auto nq = queues_.size();
  for (std::size_t d = 1; d < nq; ++d) {
    WorkQueue& q = *queues_[(slot + d) % nq];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *index = q.tasks.back();
      q.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void Runner::work(std::size_t slot) {
  std::size_t index;
  while (try_take(slot, &index)) {
    try {
      (*body_)(index);
    } catch (const std::exception& e) {
      // Attribute the failure to its cell: the batch keeps draining (every
      // remaining cell still runs) and run_batch rethrows the first error
      // with the cell id attached so a sweep failure names the culprit.
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_)
        first_error_ = std::make_exception_ptr(Error(
            "cell " + std::to_string(index) + " failed: " + e.what()));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_)
        first_error_ = std::make_exception_ptr(
            Error("cell " + std::to_string(index) +
                  " failed: unknown exception"));
    }
    bool drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained = --remaining_ == 0;
    }
    if (drained) done_cv_.notify_all();
  }
}

}  // namespace spineless::util
