// Deterministic intra-cell parallelism: a conservative parallel
// discrete-event engine over a sharded Network, structured as an
// SPDK-style reactor — persistent per-shard pollers multiplexed onto a
// small set of reactor threads, with lock-free SPSC ring handoff instead
// of the old two-barrier lockstep windows.
//
// The Network block-partitions its switches (and their hosts, NICs, and
// flows) into K shards; each shard gets its own Simulator (event heap) and
// packet pool. All per-entity state is touched only by the entity's owning
// shard, and the only events that cross shards are link-propagation
// arrivals, which a transmitting shard schedules at least
//   lookahead = link propagation delay
// into the future. That is the classic conservative-window guarantee:
// once every event below a window start X is executed and every in-flight
// arrival is at or beyond X, all shards can execute [X, X + lookahead)
// concurrently without ever receiving an event below their front.
//
// Reactor structure. Each shard is a Poller — a small non-blocking state
// machine — and R reactor threads (auto: min(K, hardware cores); reactor 0
// is the caller) round-robin their pollers. On a 1-core host R = 1 and the
// shards interleave cooperatively on one thread: the protocol then costs a
// handful of uncontended atomics per window and zero context switches,
// which is what makes --intra_jobs=2 nearly free where the barrier engine
// paid two futex rendezvous per window.
//
// Cross-shard handoff. Each (src, dst) pair owns a lock-free SPSC ring
// (util/spsc_ring.h). A full ring never blocks: the producer parks the
// event in a per-lane overflow vector and flushes it opportunistically.
// At the end of its window each shard pushes one *epoch sentinel* per
// outgoing lane and publishes produced = e (release). A consumer merges
// lane events into its heap only up to its own epoch's sentinel, in fixed
// source order — so the set and order of merged events per window is a
// pure function of the event streams, independent of when rings are
// drained. Ring drains between event batches only move events into a
// consumer-local staging buffer; the heap itself changes only at the
// deterministic merge point.
//
// Window advance. Windows are planned *decentrally*: after merging epoch
// e every shard publishes its post-merge heap minimum (merged = e,
// release) and decides the next window from shared, deterministic inputs:
//   - busy fast path: if its own heap has an event inside the fixed next
//     window [X, X + lookahead) and no global event is due, it steps into
//     that window immediately — no waits beyond the produced handshake,
//     no reads of other shards' minima;
//   - otherwise it waits for all merged >= e, folds the published minima
//     into the exact global minimum, and either mirrors the step window
//     (someone else was busy), jumps the window start to the global
//     minimum (everyone idle — this is what keeps sparse phases, e.g.
//     retransmission timeouts, O(1) windows per event cluster), or
//     rendezvouses for a central plan.
// Every shard evaluates the same rules on the same published values, so
// all pollers trace the identical window sequence with no coordinator.
//
// Globals. Global events (sinks registered kShardGlobal: link failures,
// queue monitors) mutate whole-network state, so they cannot run inside a
// shard. They execute single-threaded in the central plan: the last shard
// to arrive at the rendezvous drains the global inbox, executes due
// globals on the control simulator in exact (t, prio) order (shards run
// strictly below a mid-window global's key first — kRunKey), and
// publishes the next window plus a snapshot of the earliest pending
// global. Mid-window global posts are tagged with the posting shard's
// epoch so every shard folds the identical global set into its decision
// at epoch e regardless of scheduling.
//
// Determinism. Event priorities are (scheduler oid, counter) pairs —
// globally unique and independent of thread interleaving (simulator.h) —
// so each heap pops a total order identical to the serial engine's
// subsequence for that shard, and ring events carry the exact keys the
// serial run would have used. Together with the deterministic merge sets
// and the exact global interleaving, results are byte-identical to the
// serial engine for any intra_jobs and any reactor_threads.
//
// When to use: intra-cell sharding pays on a single large topology
// (fig6's m >= 12 cells) where PR 1's cell-level Runner has no cells left
// to parallelize — i.e. whenever cells < cores. For sweeps with many
// small cells, outer parallelism wins; the benches split --jobs into
// (outer) x (--intra_jobs) accordingly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "util/spsc_ring.h"

namespace spineless::sim {

class ShardedEngine : public ShardRouter {
 public:
  // The network's intra_jobs determines the shard count; its link delay is
  // the lookahead (and must be positive). reactor_threads picks the thread
  // count backing the pollers (0 = auto).
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
  int reactor_threads() const noexcept { return num_reactors_; }
  const Simulator& shard(int s) const { return *pollers_[static_cast<std::size_t>(s)]->sim; }

  // Engine self-metrics, cheap plain counters folded on demand. Only valid
  // between run_until calls (quiescent, like the checkpoint accessors).
  struct Metrics {
    std::uint64_t windows = 0;        // windows executed (epochs advanced)
    std::uint64_t ring_handoffs = 0;  // cross-shard events pushed via rings
    std::uint64_t max_ring_occupancy = 0;  // peak ring fill, any lane
    std::uint64_t spin_waits = 0;     // no-progress reactor passes
    std::uint64_t central_plans = 0;  // rendezvous plans (globals/jumps/stop)
    // Adaptive ring sizing: lanes whose producer hit the overflow vector
    // double their ring at the next quiescent boundary (geometric growth,
    // bounded). ring_capacity reports the largest lane the run settled on.
    std::uint64_t ring_capacity = 0;
    std::uint64_t ring_growths = 0;
  };
  Metrics metrics() const;

  // --- Checkpoint support (sim/checkpoint.h). All of these are only
  // valid between run_until calls: the reactors are parked (run_until's
  // done_count_ acquire-wait ordered their last writes before our reads),
  // every ring, staging buffer, and overflow lane is empty, and every
  // clock sits at the last deadline. ---
  const Simulator& control() const noexcept { return control_; }
  Simulator& shard_mut(int s) { return *pollers_[static_cast<std::size_t>(s)]->sim; }
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
  enum class Phase { kRun, kRunKey, kStop };
  // Poller states: the per-shard window protocol, advanced one
  // non-blocking slice per poll() call.
  enum class PState {
    kRun,          // executing the window (budgeted slices)
    kFlush,        // pushing overflow + epoch sentinels into the rings
    kMergeDecide,  // await all produced >= e, merge, publish min, decide
    kAwaitMerged,  // slow path: await all merged >= e, global-min decide
    kAwaitPlan,    // parked at the central rendezvous
    kStopped,      // round over (deadline reached)
  };

  struct KeyLess {
    bool operator()(const Simulator::Event& a,
                    const Simulator::Event& b) const noexcept {
      return a.before(b);  // keys are globally unique -> strict total order
    }
  };

  using Ring = util::SpscRing<Simulator::Event>;

  // Per-shard published protocol state, padded so one shard's handshake
  // stores never false-share with a neighbor's. The plain fields piggyback
  // on the release stores of the epoch counters: min_* is published by
  // merged, and is only overwritten at epoch e+1 after every reader's
  // produced counter passed e+1 — which happens-after their epoch-e reads.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> produced{0};  // windows fully run + flushed
    std::atomic<std::uint64_t> merged{0};    // windows fully merged
    Time min_t = 0;           // post-merge heap minimum at epoch `merged`
    std::uint64_t min_prio = 0;
    bool has_min = false;
  };

  // Consumer-side staging for one incoming lane: ring drains append here
  // at any time; the deterministic merge consumes up to the epoch
  // sentinel. `head` indexes the first unconsumed element.
  struct Stage {
    std::vector<Simulator::Event> events;
    std::size_t head = 0;
  };

  // One shard's poller: the state machine plus its producer/consumer lane
  // state. Owned exclusively by its reactor thread while a round runs.
  struct Poller {
    int s = 0;
    std::unique_ptr<Simulator> sim;

    PState st = PState::kStopped;
    std::uint64_t epoch = 0;  // monotone across rounds (atomics never reset)

    // Current window, adopted from the central plan or computed locally.
    Phase phase = Phase::kStop;
    Time win_deadline = 0;  // kRun: run events with t <= this
    Time key_t = 0;         // kRunKey: run strictly below (key_t, key_prio)
    std::uint64_t key_prio = 0;
    Time lane_floor = 0;    // lower bound every outgoing post must respect
    Time x_next = 0;        // fixed-step start of the next window (= end)
    bool force_slow = false;    // kRunKey windows must re-plan centrally
    bool sentinels_sent = false;
    std::uint64_t plan_seen = 0;  // plan_gen_ already adopted

    // Producer side: per-dst overflow for full rings (index cursor avoids
    // pop-front churn). overflow_pressure counts events parked per lane
    // since the last quiescent boundary — the ring-growth signal.
    std::vector<std::vector<Simulator::Event>> overflow;
    std::vector<std::size_t> overflow_head;
    std::vector<std::uint64_t> overflow_pressure;

    // Consumer side: per-src staging.
    std::vector<Stage> in;

    // Metrics (plain: read only while quiescent).
    std::uint64_t windows = 0;
    std::uint64_t handoffs = 0;
  };

  // Central plan output, published by plan() under plan_gen_ (release).
  struct Plan {
    Phase phase = Phase::kStop;
    Time win_deadline = 0;
    Time key_t = 0;
    std::uint64_t key_prio = 0;
    Time lane_floor = 0;
    Time x_next = 0;
    // Snapshot of the earliest pending global after planning; combined
    // with epoch-tagged inbox posts this is every shard's deterministic
    // view of "the next global" between central plans.
    bool g_valid = false;
    Time g_t = 0;
    std::uint64_t g_prio = 0;
  };

  struct GlobalPost {
    Simulator::Event ev;
    std::uint64_t epoch;  // poster's window epoch at post time
  };

  // The next-global key visible to a shard deciding at `epoch`.
  struct GKey {
    bool valid = false;
    Time t = 0;
    std::uint64_t prio = 0;
  };

  void worker_main(int reactor);
  void reactor_main(int reactor);
  // Quiescent boundary only (every ring empty): doubles any lane whose
  // producer overflowed since the last call, up to the growth bound.
  void grow_pressured_rings();
  bool poll(Poller& p);  // one non-blocking slice; true if progress
  void lane_push(Poller& p, int dst, const Simulator::Event& e);
  bool flush_overflow(Poller& p);  // true when every lane drained
  std::size_t drain_rings(Poller& p, std::size_t max);  // rings -> staging
  void merge_epoch(Poller& p);  // staging -> heap up to epoch sentinel
  void publish_min(Poller& p);
  GKey effective_global(std::uint64_t epoch);
  // Decision steps; each either installs the next window on p (st = kRun)
  // or advances p to the next protocol state.
  void decide_fast(Poller& p);
  void decide_slow(Poller& p);
  void arrive_central(Poller& p);
  void adopt_plan(Poller& p);
  void adopt_window(Poller& p, Phase phase, Time win_deadline, Time key_t,
                    std::uint64_t key_prio, Time lane_floor, Time x_next,
                    bool force_slow);
  // Single-threaded: executes due globals, publishes the next window (or
  // kStop) via plan_gen_. Every heap is quiescent and fully merged here.
  void plan();

  Ring& ring(int src, int dst) {
    return *rings_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(num_shards_) +
                   static_cast<std::size_t>(dst)];
  }
  static bool is_sentinel(const Simulator::Event& e) noexcept {
    return e.sink == nullptr;
  }

  Network& net_;
  const int num_shards_;
  const int num_reactors_;
  const Time lookahead_;

  std::vector<std::unique_ptr<Poller>> pollers_;
  Simulator control_;
  std::vector<std::unique_ptr<Ring>> rings_;  // rings_[src * K + dst]
  std::vector<Slot> slots_;

  // Pending global events in key order, plus a mutex-guarded inbox for the
  // (rare) case of a shard posting a global mid-window. inbox_count_ is
  // the lock-free emptiness fast path; its release store under the mutex
  // pairs with the poster's produced handshake so a post tagged epoch e is
  // visible to every shard deciding at e.
  std::set<Simulator::Event, KeyLess> globals_;
  std::mutex global_mu_;
  std::vector<GlobalPost> global_inbox_;
  std::atomic<std::uint64_t> inbox_count_{0};

  Plan plan_;
  std::atomic<std::uint64_t> plan_gen_{0};
  std::atomic<int> central_arrived_{0};
  Time deadline_ = 0;  // current run_until target
  std::uint64_t central_plans_ = 0;
  std::uint64_t ring_growths_ = 0;
  // Peak occupancies of rings retired by growth, so metrics() keeps the
  // all-time maximum across swaps.
  std::uint64_t retired_ring_occupancy_ = 0;

  // Per-reactor spin-wait counters (padded; summed while quiescent).
  struct alignas(64) ReactorStats {
    std::uint64_t spins = 0;
  };
  std::vector<ReactorStats> reactor_stats_;

  // Worker threads park here between run_until calls; done_count_ is their
  // end-of-round acknowledgment, awaited by run_until before it returns so
  // the next round's planning cannot race a worker still leaving this one.
  std::atomic<std::uint64_t> run_gen_{0};
  std::atomic<int> done_count_{0};
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
