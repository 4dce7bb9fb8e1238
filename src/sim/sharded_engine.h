// Deterministic intra-cell parallelism: a conservative parallel
// discrete-event engine over a sharded Network, advanced in windows that
// every thread derives from the same published keys.
//
// The Network block-partitions its switches (and their hosts, NICs, and
// flows) into K shards; each shard gets its own Simulator (event queue) and
// packet pool. All per-entity state is touched only by the entity's owning
// shard, and the only events that cross shards are link-propagation
// arrivals, which a transmitting shard schedules at least
//   lookahead = link propagation delay
// into the future. That is the classic conservative-window guarantee:
// once every event below a window start X is executed and every in-flight
// arrival is at or beyond X, all shards can execute [X, X + lookahead)
// concurrently without ever receiving an event below their front.
//
// Threads. T = min(reactor_threads or the core count, K) threads, thread 0
// being the caller, each own a contiguous block of shards and run each of
// them through the whole window in turn.
//
// One window rule. At the end of window e every shard writes three keys
// into slot e & 1 — its queue minimum, the least key it posted to any lane
// and the least global key it has posted since the last rendezvous — and
// then stores produced = e (release). Every thread acquires every
// produced >= e, folds the slots in shard order together with the earliest
// pending global, and applies next_window():
//   - a due global comes first, or nothing is left by the deadline:
//     rendezvous;
//   - else the window is [tmin, min(tmin + lookahead, deadline + 1)) with
//     tmin the exact earliest pending key (queues plus lanes), cut strictly
//     below a global that falls inside it (kRunKey).
// Every thread reads the same values, so every thread traces the same
// window sequence with no coordinator.
//
// Lanes. A post during window e appends to the producer's out[dst][e & 1];
// dst's own thread merges its lanes when window e + 1 starts, sources in
// fixed order, each lane in post order, and clears them. Slots and lanes
// are double-buffered on one parity argument: a shard writes parity e & 1
// again only in window e + 2, which it reaches only after acquiring every
// produced >= e + 1, and each reader publishes that value after its
// epoch-e reads and merges.
//
// Rendezvous. Only globals (sinks registered kShardGlobal: link failures,
// queue monitors, which mutate whole-network state) and the deadline stop
// every thread. An arrival counter picks the last thread to arrive, which
// merges every lane and every shard's posted globals, executes due
// globals on the control simulator in exact (t, prio) order, applies the
// same next_window() over exact minima and publishes plan_[gen & 1] by
// bumping gen_ — also the gate between run_until calls.
//
// Determinism. Event priorities are (scheduler oid, counter) pairs —
// globally unique and independent of thread interleaving (simulator.h) —
// so each queue pops a total order identical to the serial engine's
// subsequence for that shard, and lane events carry the exact keys the
// serial run would have used. With the exact global interleaving, results
// are byte-identical to the serial engine for any intra_jobs and any
// reactor_threads.
//
// When to use: intra-cell sharding pays on a single large topology
// (fig6's m >= 12 cells) where the cell-level Runner has no cells left to
// parallelize — i.e. whenever cells < cores. For sweeps with many small
// cells, outer parallelism wins; the benches split --jobs into
// (outer) x (--intra_jobs) accordingly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"

namespace spineless::sim {

class ShardedEngine : public ShardRouter {
 public:
  // The network's intra_jobs determines the shard count; its link delay is
  // the lookahead (and must be positive). reactor_threads picks the thread
  // count (0 = auto).
  explicit ShardedEngine(Network& net);
  ~ShardedEngine() override;

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // Single-threaded front door for setup and observation: schedule flow
  // starts, failures, monitors through this simulator — events route to
  // the owning shard (or the global queue) automatically.
  Simulator& control() noexcept { return control_; }

  // Runs all shards up to `deadline` (inclusive), like
  // Simulator::run_until. May be called repeatedly with growing deadlines.
  void run_until(Time deadline);

  // Total events executed across every shard plus the global events —
  // equals the serial engine's count for the same scenario.
  std::uint64_t events_processed() const;

  int num_shards() const noexcept { return num_shards_; }
  int reactor_threads() const noexcept { return num_threads_; }
  const Simulator& shard(int s) const { return *shards_[static_cast<std::size_t>(s)].sim; }

  // Engine self-metrics. Only valid between run_until calls (quiescent,
  // like the checkpoint accessors).
  struct Metrics {
    std::uint64_t windows = 0;   // windows executed (epochs advanced)
    std::uint64_t handoffs = 0;  // cross-shard events posted to lanes
  };
  Metrics metrics() const;

  // --- Checkpoint support (sim/checkpoint.h). All of these are only
  // valid between run_until calls: the last rendezvous merged every lane
  // and posted global and ordered every thread's writes before run_until
  // returned, and every clock sits at the last deadline. ---
  const Simulator& control() const noexcept { return control_; }
  Simulator& shard_mut(int s) { return *shards_[static_cast<std::size_t>(s)].sim; }
  Time now() const noexcept { return control_.now(); }
  // Pending global events in key order (the engine's ordered set, which
  // push/pop order reconstructs exactly).
  std::vector<Simulator::Event> pending_globals() const;
  void restore_globals(const std::vector<Simulator::Event>& events);

  // ShardRouter:
  void post(std::int32_t src_shard, std::int32_t dst_shard,
            const RoutedEvent& e) override;
  void post_global(std::int32_t src_shard, const RoutedEvent& e) override;

 private:
  // An event's (t, prio) key; the default is later than every real key.
  struct Key {
    Time t = std::numeric_limits<Time>::max();
    std::uint64_t prio = std::numeric_limits<std::uint64_t>::max();
    bool operator<(const Key& o) const noexcept {
      return t != o.t ? t < o.t : prio < o.prio;
    }
  };
  static Key key(const Simulator::Event& e) noexcept { return {e.t, e.prio}; }

  enum class Phase {
    kRun,     // run events with t <= deadline
    kRunKey,  // run events strictly below fence
    kGlobal,  // rendezvous: a due global comes first
    kStop,    // rendezvous: nothing is left by the deadline
  };
  struct Window {
    Phase phase = Phase::kStop;
    Time deadline = 0;
    Key fence;
    Time lane_floor = 0;  // lower bound every post of the window respects
  };
  // The one window rule, over the earliest pending shard key and the
  // earliest pending global.
  Window next_window(Key shard_min, Key next_global) const;

  // One shard's engine state, padded like Slot: its owning thread writes
  // it on every post.
  struct alignas(64) Shard {
    std::unique_ptr<Simulator> sim;
    // The window being run, read by post() on the owning thread.
    std::uint64_t epoch = 0;
    Time lane_floor = 0;
    // out[dst][epoch & 1] holds window epoch's posts to dst in post order
    // (out[self] stays empty).
    std::vector<std::array<std::vector<Simulator::Event>, 2>> out;
    Key lane_min;  // least key posted to a lane this window
    // Globals posted since the last rendezvous, and their least key.
    std::vector<Simulator::Event> globals_out;
    Key global_min;
    std::uint64_t handoffs = 0;
  };

  // One shard's published keys, padded so one shard's stores never
  // false-share with a neighbor's. keys[e & 1] is written at the end of
  // window e and published by produced = e.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> produced{0};
    struct Keys {
      Key heap;    // queue minimum after the window
      Key lane;    // least key posted to a lane in the window
      Key global;  // least global posted since the last rendezvous
    };
    std::array<Keys, 2> keys;
  };

  struct Plan {
    Window window;
    std::uint64_t epoch = 0;  // epoch of `window`
  };

  void worker_main(int thread);
  // Runs this thread's shards from plan `gen` until a plan stops the
  // round; returns the generation of that stop plan.
  std::uint64_t run_round(int thread, std::uint64_t gen);
  // Merges window epoch - 1's lanes into shard s, runs it through window
  // `w` and publishes its keys.
  void run_window(int s, std::uint64_t epoch, const Window& w);
  // Acquires every shard's epoch keys and applies next_window to them.
  Window decide(std::uint64_t epoch);
  // Single-threaded, every queue quiescent: merges every lane and posted
  // global, executes due globals and writes plan_[gen & 1] for a window
  // numbered `epoch`. Returns false if the round is over.
  bool plan(std::uint64_t epoch, std::uint64_t gen);
  void publish(std::uint64_t gen);

  const int num_shards_;
  const int num_threads_;
  const Time lookahead_;

  std::vector<Shard> shards_;
  std::vector<Slot> slots_;
  Simulator control_;
  struct KeyLess {
    bool operator()(const Simulator::Event& a,
                    const Simulator::Event& b) const noexcept {
      return a.before(b);  // keys are globally unique -> strict total order
    }
  };
  // Pending global events in key order; only a rendezvous (or setup)
  // changes it, so every thread may read its minimum between them.
  std::set<Simulator::Event, KeyLess> globals_;

  Time deadline_ = 0;  // current run_until target
  // Epoch of the next window to run; windows run so far = next_epoch_ - 1.
  std::uint64_t next_epoch_ = 1;
  // plan_[gen & 1] is published by gen_ = gen (release); a plan is
  // rewritten only two generations later, after every thread has arrived
  // at a rendezvous past it.
  std::array<Plan, 2> plan_;
  std::atomic<std::uint64_t> gen_{0};
  std::atomic<int> arrived_{0};  // threads at the current rendezvous
  std::atomic<bool> quit_{false};
  std::vector<std::thread> threads_;
};

// Builds the engine `net` is configured for — a ShardedEngine when it is
// sharded, else a serial Simulator — and returns body(engine, control),
// where control is the simulator that setup events are scheduled through.
template <typename Body>
decltype(auto) with_engine(Network& net, Body&& body) {
  if (net.sharded()) {
    ShardedEngine engine(net);
    return body(engine, engine.control());
  }
  Simulator simulator;
  return body(simulator, simulator);
}

}  // namespace spineless::sim
