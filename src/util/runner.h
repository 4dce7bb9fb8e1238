// Parallel experiment runner: a work-stealing thread pool that fans the
// independent cells of a benchmark sweep — (topology, traffic matrix,
// config) triples — across cores. It also backs intra-cell parallelism
// (route-table construction fans destinations over the same pool).
//
// Determinism contract: a cell's randomness must derive only from its index
// (derive_cell_seed), never from which thread ran it or in what order, and
// results are collected into index-ordered slots. A sweep therefore
// produces byte-identical output for any --jobs value, including 1.
//
// Nesting: code running on a Runner worker (or a sharded-engine shard) may
// itself construct a Runner — e.g. a bench cell building a Network whose
// table construction is parallel. By default such an inner Runner clamps
// itself to 1 job so --jobs is never oversubscribed; pass Nested::kAllow
// when the caller has explicitly divided the job budget (the benches hand
// each cell --intra_jobs workers out of --jobs).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/rng.h"

namespace spineless::util {

// Per-cell seed: decorrelates cells drawn from one base seed without any
// sequential RNG handoff, so cell i's stream is the same no matter how many
// worker threads exist or which one picks it up.
constexpr std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                                         std::uint64_t cell_index) {
  return splitmix64(base_seed ^ (cell_index * 0x9e3779b97f4a7c15ULL));
}

// Default worker count: SPINELESS_JOBS if set (and positive), otherwise
// std::thread::hardware_concurrency().
int default_jobs();

// RAII marker used by the pools themselves; user code never needs it.
class ParallelRegion {
 public:
  ParallelRegion();
  ~ParallelRegion();
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;
};

class Runner {
 public:
  enum class Nested {
    kSerialize,  // clamp to 1 job when constructed inside a parallel region
    kAllow,      // keep the requested job count (caller divided the budget)
  };

  // jobs < 1 is clamped to 1. jobs == 1 runs every batch inline on the
  // calling thread (no pool threads are created).
  explicit Runner(int jobs = default_jobs(),
                  Nested nested = Nested::kSerialize);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int jobs() const noexcept { return jobs_; }

  // Applies fn(i) for i in [0, n) across the pool and returns the results
  // in index order. fn must be callable concurrently from multiple
  // threads; the first exception thrown by any cell is rethrown here
  // (remaining cells still run). The calling thread participates as a
  // worker, so map() on a 1-job runner is exactly a serial loop.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<R> out(n);
    run_batch(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // Untyped core of map(): runs body(i) for i in [0, n).
  void run_batch(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  // One work-stealing deque per worker slot: the owner pops from the
  // front, thieves take from the back.
  struct WorkQueue {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  void worker_main(std::size_t slot);
  // Drains the current batch from `slot`'s queue, stealing when empty.
  void work(std::size_t slot);
  bool try_take(std::size_t slot, std::size_t* index);

  const int jobs_;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable batch_cv_;  // workers wait here between batches
  std::condition_variable done_cv_;   // run_batch waits here for drain
  std::uint64_t generation_ = 0;      // bumped per batch to wake workers
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t remaining_ = 0;  // tasks not yet completed in this batch
  std::exception_ptr first_error_;
};

}  // namespace spineless::util
