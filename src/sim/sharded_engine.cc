#include "sim/sharded_engine.h"

#include <algorithm>

#include "util/runner.h"

namespace spineless::sim {
namespace {

// A waiting thread re-checks the awaited value kSpinLoads times before it
// parks in atomic::wait, and yields its core after every kLoadsPerYield of
// them, so a peer it waits for still runs when threads outnumber cores
// (parallel cells, parallel tests). A window of the packet cells lasts
// microseconds, so a bound that parks on every small imbalance pays a
// futex wake per window; this one parks only between run_until calls and
// across long imbalances.
constexpr int kSpinLoads = 200'000;
constexpr int kLoadsPerYield = 64;

// Returns once `a` holds at least `v`: a bounded spin, then a park in the
// futex-backed wait. Every store to a waited-on atomic is followed by a
// notify_all.
void await_at_least(const std::atomic<std::uint64_t>& a, std::uint64_t v) {
  int spins = 0;
  // NOLINTNEXTLINE(spineless-atomic-spin): the spin is bounded by kSpinLoads and yields every kLoadsPerYield loads; after it each miss parks in the futex-backed atomic wait
  for (std::uint64_t cur; (cur = a.load(std::memory_order_acquire)) < v;) {
    if (spins == kSpinLoads) {
      a.wait(cur, std::memory_order_acquire);
    } else if (++spins % kLoadsPerYield == 0) {
      std::this_thread::yield();
    }
  }
}

// Pushes a lane's events into `sim` in post order and empties the lane,
// which keeps its capacity for a later window.
void drain(std::vector<Simulator::Event>& lane, Simulator& sim) {
  for (const Simulator::Event& e : lane) sim.push_event(e);
  lane.clear();
}

int resolve_threads(int requested, int shards) {
  int r = requested;
  if (r <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    r = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::clamp(r, 1, shards);
}

}  // namespace

ShardedEngine::ShardedEngine(Network& net)
    : num_shards_(net.num_shards()),
      num_threads_(
          resolve_threads(net.config().reactor_threads, net.num_shards())),
      lookahead_(kLinkDelay),
      shards_(static_cast<std::size_t>(net.num_shards())),
      slots_(static_cast<std::size_t>(net.num_shards())) {
  static_assert(kLinkDelay > 0,
                "sharded engine needs a positive link delay lookahead");
  for (int s = 0; s < num_shards_; ++s) {
    Shard& sh = shards_[static_cast<std::size_t>(s)];
    sh.sim = std::make_unique<Simulator>();
    sh.sim->set_shard_context(this, s);
    sh.out.resize(static_cast<std::size_t>(num_shards_));
  }
  control_.set_shard_context(this, Simulator::kControlShard);
  threads_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int t = 1; t < num_threads_; ++t)
    threads_.emplace_back([this, t] { worker_main(t); });
}

ShardedEngine::~ShardedEngine() {
  quit_.store(true, std::memory_order_relaxed);
  publish(gen_.load(std::memory_order_relaxed) + 1);
  for (std::thread& t : threads_) t.join();
}

void ShardedEngine::post(std::int32_t src_shard, std::int32_t dst_shard,
                         const RoutedEvent& e) {
  const Simulator::Event ev{e.t, e.prio, e.sink, e.ctx};
  if (src_shard == Simulator::kControlShard) {
    // Setup or a global event: every shard is quiescent, push directly.
    shards_[static_cast<std::size_t>(dst_shard)].sim->push_event(ev);
    return;
  }
  // Mid-window handoff: the propagation delay guarantees the event lies at
  // or beyond the window's lookahead horizon, so merging it when the next
  // window starts cannot be late.
  Shard& sh = shards_[static_cast<std::size_t>(src_shard)];
  SPINELESS_DCHECK(e.t >= sh.lane_floor);
  ++sh.handoffs;
  sh.out[static_cast<std::size_t>(dst_shard)][sh.epoch & 1].push_back(ev);
  sh.lane_min = std::min(sh.lane_min, key(ev));
}

void ShardedEngine::post_global(std::int32_t src_shard, const RoutedEvent& e) {
  const Simulator::Event ev{e.t, e.prio, e.sink, e.ctx};
  if (src_shard == Simulator::kControlShard) {
    globals_.insert(ev);
    return;
  }
  // A shard scheduling a global mid-window must respect the same lookahead
  // horizon as lane traffic — other shards may already run up to it. Its
  // key reaches every thread's next decision through the shard's slot.
  Shard& sh = shards_[static_cast<std::size_t>(src_shard)];
  SPINELESS_DCHECK(e.t >= sh.lane_floor);
  sh.globals_out.push_back(ev);
  sh.global_min = std::min(sh.global_min, key(ev));
}

std::vector<Simulator::Event> ShardedEngine::pending_globals() const {
  return {globals_.begin(), globals_.end()};
}

void ShardedEngine::restore_globals(
    const std::vector<Simulator::Event>& events) {
  globals_.clear();
  for (const Simulator::Event& e : events) globals_.insert(e);
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t n = control_.events_processed();
  for (const Shard& sh : shards_) n += sh.sim->events_processed();
  return n;
}

ShardedEngine::Metrics ShardedEngine::metrics() const {
  Metrics m;
  m.windows = next_epoch_ - 1;
  for (const Shard& sh : shards_) m.handoffs += sh.handoffs;
  return m;
}

ShardedEngine::Window ShardedEngine::next_window(Key shard_min,
                                                 Key next_global) const {
  Window w;
  if (next_global.t <= deadline_ && next_global < shard_min) {
    w.phase = Phase::kGlobal;
    return w;
  }
  if (shard_min.t > deadline_) return w;  // kStop
  // [tmin, end): every event below tmin is executed, and any arrival
  // produced inside lands at >= tmin + lookahead >= end, so no shard can
  // receive an event below its execution front.
  const Time end = std::min(shard_min.t + lookahead_, deadline_ + 1);
  w.lane_floor = shard_min.t + lookahead_;
  if (next_global.t < end) {
    // A global falls inside the window: shards run strictly below its key,
    // then it executes at its exact serial position.
    w.phase = Phase::kRunKey;
    w.fence = next_global;
  } else {
    w.phase = Phase::kRun;
    w.deadline = end - 1;  // run_until is inclusive
  }
  return w;
}

void ShardedEngine::publish(std::uint64_t gen) {
  gen_.store(gen, std::memory_order_release);
  gen_.notify_all();
}

void ShardedEngine::run_until(Time deadline) {
  SPINELESS_DCHECK(deadline >= deadline_);
  deadline_ = deadline;
  const std::uint64_t gen = gen_.load(std::memory_order_relaxed) + 1;
  if (!plan(next_epoch_, gen)) return;  // nothing due: clocks parked
  publish(gen);
  run_round(/*thread=*/0, gen);
}

void ShardedEngine::worker_main(int thread) {
  util::ParallelRegion region;
  for (std::uint64_t gen = 0;;) {
    await_at_least(gen_, gen + 1);
    if (quit_.load(std::memory_order_relaxed)) return;
    gen = run_round(thread, gen + 1);
  }
}

std::uint64_t ShardedEngine::run_round(int thread, std::uint64_t gen) {
  const int begin = thread * num_shards_ / num_threads_;
  const int end = (thread + 1) * num_shards_ / num_threads_;
  for (;; ++gen) {
    const Plan& p = plan_[gen & 1];
    if (p.window.phase == Phase::kStop) return gen;
    Window w = p.window;
    std::uint64_t epoch = p.epoch;
    for (;;) {
      for (int s = begin; s < end; ++s) run_window(s, epoch, w);
      const Window next = decide(epoch);
      if (next.phase == Phase::kGlobal || next.phase == Phase::kStop) break;
      w = next;
      ++epoch;
    }
    // Rendezvous. The last thread to arrive has acquired every other
    // thread's writes through the counter and plans alone; the others
    // acquire the plan through gen_.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == num_threads_) {
      arrived_.store(0, std::memory_order_relaxed);
      plan(epoch + 1, gen + 1);
      publish(gen + 1);
    } else {
      await_at_least(gen_, gen + 1);
    }
  }
}

void ShardedEngine::run_window(int s, std::uint64_t epoch, const Window& w) {
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  // Deterministic merge of window epoch - 1's posts: fixed source order,
  // each lane in post order. Their producers published produced >= epoch - 1
  // before this thread's decision, and write this parity again only after
  // acquiring our produced >= epoch.
  for (Shard& src : shards_)
    drain(src.out[static_cast<std::size_t>(s)][(epoch - 1) & 1], *sh.sim);
  sh.epoch = epoch;
  sh.lane_floor = w.lane_floor;
  sh.lane_min = Key{};
  if (w.phase == Phase::kRunKey) {
    sh.sim->run_until_key(w.fence.t, w.fence.prio);
  } else {
    sh.sim->run_until(w.deadline);
  }
  Slot& slot = slots_[static_cast<std::size_t>(s)];
  Slot::Keys& k = slot.keys[epoch & 1];
  k.heap = Key{};
  sh.sim->peek(&k.heap.t, &k.heap.prio);
  k.lane = sh.lane_min;
  k.global = sh.global_min;
  slot.produced.store(epoch, std::memory_order_release);
  slot.produced.notify_all();
}

ShardedEngine::Window ShardedEngine::decide(std::uint64_t epoch) {
  Key shard_min;
  Key next_global;
  if (!globals_.empty()) next_global = key(*globals_.begin());
  for (const Slot& slot : slots_) {
    await_at_least(slot.produced, epoch);
    const Slot::Keys& k = slot.keys[epoch & 1];
    shard_min = std::min({shard_min, k.heap, k.lane});
    next_global = std::min(next_global, k.global);
  }
  return next_window(shard_min, next_global);
}

bool ShardedEngine::plan(std::uint64_t epoch, std::uint64_t gen) {
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    for (Shard& src : shards_)
      for (auto& lane : src.out[d]) drain(lane, *shards_[d].sim);
  }
  for (Shard& sh : shards_) {
    globals_.insert(sh.globals_out.begin(), sh.globals_out.end());
    sh.globals_out.clear();
    sh.global_min = Key{};
  }
  Window w;
  for (;;) {
    // Exact, not a bound: every queue is quiescent and every lane merged.
    Key shard_min;
    for (const Shard& sh : shards_) {
      Key k;  // stays later than every key when the queue is empty
      sh.sim->peek(&k.t, &k.prio);
      shard_min = std::min(shard_min, k);
    }
    const Key next_global =
        globals_.empty() ? Key{} : key(*globals_.begin());
    w = next_window(shard_min, next_global);
    if (w.phase != Phase::kGlobal) break;
    // The global precedes every pending shard event: execute it now,
    // single-threaded on the control simulator. It may schedule into
    // shards or queue further globals, so decide again from scratch.
    const Simulator::Event g = *globals_.begin();
    globals_.erase(globals_.begin());
    control_.dispatch_external(g);
  }
  if (w.phase == Phase::kStop) {
    // Park every clock at the deadline, exactly like the serial engine's
    // run_until.
    for (Shard& sh : shards_) sh.sim->run_until(deadline_);
    control_.run_until(deadline_);
  }
  plan_[gen & 1] = Plan{w, epoch};
  next_epoch_ = epoch;
  return w.phase != Phase::kStop;
}

}  // namespace spineless::sim
