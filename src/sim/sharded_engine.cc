#include "sim/sharded_engine.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/runner.h"

namespace spineless::sim {
namespace {

// Events dispatched per poll() slice — bounds how long one dense shard can
// monopolize a reactor that also hosts other pollers.
constexpr int kRunBatch = 512;
// Ring entries moved to staging per opportunistic drain.
constexpr std::size_t kDrainBatch = 256;
// Initial ring capacity (power of two). Overflow vectors absorb bursts
// beyond it, and sustained producer-overflow pressure grows a lane's ring
// geometrically (doubling at quiescent run_until boundaries) up to
// kMaxRingCapacity — the micro scenario used to pin max_ring_occupancy at
// the old fixed 1024 with every burst spilling to overflow.
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kMaxRingCapacity = 65536;
// Full no-progress reactor passes before yielding the OS thread.
constexpr int kSpinPasses = 64;

int resolve_reactors(int requested, int shards) {
  int r = requested;
  if (r <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    r = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (r > shards) r = shards;
  if (r < 1) r = 1;
  return r;
}

// Best-effort reactor->core pinning (NetworkConfig::pin_reactors). Purely a
// performance hint: affinity never reaches event order, so pinned and
// unpinned runs are byte-identical. No-op off Linux or on 1-core hosts.
void pin_to_core(std::thread::native_handle_type handle, int reactor) {
#if defined(__linux__)
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(reactor) % hw, &set);
  pthread_setaffinity_np(handle, sizeof(set), &set);  // failure = unpinned
#else
  (void)handle;
  (void)reactor;
#endif
}

}  // namespace

ShardedEngine::ShardedEngine(Network& net)
    : net_(net),
      num_shards_(net.num_shards()),
      num_reactors_(
          resolve_reactors(net.config().reactor_threads, net.num_shards())),
      lookahead_(kLinkDelay),
      slots_(static_cast<std::size_t>(net.num_shards())),
      reactor_stats_(static_cast<std::size_t>(num_reactors_)) {
  static_assert(kLinkDelay > 0,
                "sharded engine needs a positive link delay lookahead");
  const std::size_t k = static_cast<std::size_t>(num_shards_);
  pollers_.reserve(k);
  for (int s = 0; s < num_shards_; ++s) {
    auto p = std::make_unique<Poller>();
    p->s = s;
    p->sim = std::make_unique<Simulator>();
    p->sim->set_shard_context(this, s);
    p->overflow.resize(k);
    p->overflow_head.assign(k, 0);
    p->overflow_pressure.assign(k, 0);
    p->in.resize(k);
    pollers_.push_back(std::move(p));
  }
  control_.set_shard_context(this, Simulator::kControlShard);
  rings_.resize(k * k);
  for (int src = 0; src < num_shards_; ++src) {
    for (int dst = 0; dst < num_shards_; ++dst) {
      if (src == dst) continue;
      rings_[static_cast<std::size_t>(src) * k + static_cast<std::size_t>(dst)] =
          std::make_unique<Ring>(kRingCapacity);
    }
  }
  threads_.reserve(static_cast<std::size_t>(num_reactors_ - 1));
  for (int r = 1; r < num_reactors_; ++r)
    threads_.emplace_back([this, r] { worker_main(r); });
  if (net.config().pin_reactors) {
#if defined(__linux__)
    pin_to_core(pthread_self(), /*reactor=*/0);  // reactor 0 is the caller
#endif
    for (int r = 1; r < num_reactors_; ++r)
      pin_to_core(threads_[static_cast<std::size_t>(r - 1)].native_handle(),
                  r);
  }
}

ShardedEngine::~ShardedEngine() {
  quit_.store(true, std::memory_order_release);
  run_gen_.fetch_add(1, std::memory_order_acq_rel);
  run_gen_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ShardedEngine::post(std::int32_t src_shard, std::int32_t dst_shard,
                         const RoutedEvent& e) {
  const Simulator::Event ev{e.t, e.prio, e.sink, e.ctx};
  if (src_shard == Simulator::kControlShard) {
    // Setup or a global event: every shard is quiescent, push directly.
    pollers_[static_cast<std::size_t>(dst_shard)]->sim->push_event(ev);
    return;
  }
  // Mid-window handoff: the propagation delay guarantees the event lies at
  // or beyond the window's lookahead horizon, so merging it at the next
  // epoch boundary cannot be late.
  Poller& p = *pollers_[static_cast<std::size_t>(src_shard)];
  SPINELESS_DCHECK(e.t >= p.lane_floor);
  ++p.handoffs;
  lane_push(p, dst_shard, ev);
}

void ShardedEngine::post_global(std::int32_t src_shard, const RoutedEvent& e) {
  const Simulator::Event ev{e.t, e.prio, e.sink, e.ctx};
  if (src_shard == Simulator::kControlShard) {
    globals_.insert(ev);
    return;
  }
  // A shard scheduling a global mid-window must respect the same lookahead
  // horizon as lane traffic — other shards may already run up to it. The
  // epoch tag makes every shard's decision at epoch e fold the identical
  // global set: a post tagged e happens-before the poster's produced = e,
  // which every decider at e has acquired.
  const Poller& p = *pollers_[static_cast<std::size_t>(src_shard)];
  SPINELESS_DCHECK(e.t >= p.lane_floor);
  std::lock_guard<std::mutex> lock(global_mu_);
  global_inbox_.push_back(GlobalPost{ev, p.epoch});
  inbox_count_.store(global_inbox_.size(), std::memory_order_release);
}

std::vector<Simulator::Event> ShardedEngine::pending_globals() const {
  SPINELESS_CHECK(global_inbox_.empty());  // quiescent boundary only
  return {globals_.begin(), globals_.end()};
}

void ShardedEngine::restore_globals(
    const std::vector<Simulator::Event>& events) {
  SPINELESS_CHECK(global_inbox_.empty());
  globals_.clear();
  for (const Simulator::Event& e : events) globals_.insert(e);
}

std::uint64_t ShardedEngine::events_processed() const {
  std::uint64_t n = control_.events_processed();
  for (const auto& p : pollers_) n += p->sim->events_processed();
  return n;
}

ShardedEngine::Metrics ShardedEngine::metrics() const {
  Metrics m;
  m.central_plans = central_plans_;
  m.ring_growths = ring_growths_;
  m.max_ring_occupancy = retired_ring_occupancy_;
  if (!pollers_.empty()) m.windows = pollers_[0]->windows;
  for (const auto& p : pollers_) m.ring_handoffs += p->handoffs;
  for (const auto& r : rings_) {
    if (r == nullptr) continue;
    if (r->max_occupancy() > m.max_ring_occupancy)
      m.max_ring_occupancy = r->max_occupancy();
    if (r->capacity() > m.ring_capacity) m.ring_capacity = r->capacity();
  }
  for (const ReactorStats& rs : reactor_stats_) m.spin_waits += rs.spins;
  return m;
}

void ShardedEngine::grow_pressured_rings() {
  for (int src = 0; src < num_shards_; ++src) {
    Poller& p = *pollers_[static_cast<std::size_t>(src)];
    for (int dst = 0; dst < num_shards_; ++dst) {
      if (dst == src) continue;
      std::uint64_t& pressure =
          p.overflow_pressure[static_cast<std::size_t>(dst)];
      if (pressure == 0) continue;
      pressure = 0;
      auto& slot = rings_[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(num_shards_) +
                          static_cast<std::size_t>(dst)];
      const std::size_t cap = slot->capacity();
      if (cap >= kMaxRingCapacity) continue;
      // Empty between rounds (every producer flushed, every consumer
      // merged), so the swap cannot lose or reorder events.
      SPINELESS_DCHECK(slot->empty());
      if (slot->max_occupancy() > retired_ring_occupancy_)
        retired_ring_occupancy_ = slot->max_occupancy();
      slot = std::make_unique<Ring>(cap * 2);
      ++ring_growths_;
    }
  }
}

void ShardedEngine::run_until(Time deadline) {
  SPINELESS_DCHECK(deadline >= deadline_);
  deadline_ = deadline;
  grow_pressured_rings();
  plan();
  if (plan_.phase == Phase::kStop) return;  // nothing due: clocks parked
  for (const auto& p : pollers_) adopt_plan(*p);
  done_count_.store(0, std::memory_order_relaxed);
  run_gen_.fetch_add(1, std::memory_order_acq_rel);
  run_gen_.notify_all();
  reactor_main(/*reactor=*/0);
  // Wait for every worker to leave the round before returning: a repeated
  // run_until re-plans on this thread, and that write to the plan state
  // must not race a worker's final poll. Park on the value the condition
  // just tested: re-loading for wait() could read the last worker's
  // increment, whose notify already fired, and sleep on it forever.
  const int workers = num_reactors_ - 1;
  // NOLINTNEXTLINE(spineless-atomic-spin): each miss parks in the futex-backed atomic wait until a worker notifies — not a busy spin
  for (int done = 0;
       (done = done_count_.load(std::memory_order_acquire)) != workers;)
    done_count_.wait(done);
}

void ShardedEngine::worker_main(int reactor) {
  util::ParallelRegion region;
  std::uint64_t seen = 0;
  for (;;) {
    // NOLINTNEXTLINE(spineless-atomic-spin): round gate — workers park in the futex-backed atomic wait between run_until calls, not a busy spin
    while (run_gen_.load(std::memory_order_acquire) == seen) run_gen_.wait(seen);
    seen = run_gen_.load(std::memory_order_acquire);
    if (quit_.load(std::memory_order_acquire)) return;
    reactor_main(reactor);
    done_count_.fetch_add(1, std::memory_order_acq_rel);
    done_count_.notify_all();
  }
}

void ShardedEngine::reactor_main(int reactor) {
  // This reactor round-robins its contiguous block of pollers. Every
  // poll() is non-blocking, so a reactor hosting several shards (fewer
  // cores than shards — notably R = 1 on a single-core host) interleaves
  // them cooperatively: a poller waiting on a peer simply returns and the
  // peer runs next, with no context switch and no futex.
  const int begin = reactor * num_shards_ / num_reactors_;
  const int end = (reactor + 1) * num_shards_ / num_reactors_;
  ReactorStats& stats = reactor_stats_[static_cast<std::size_t>(reactor)];
  int idle = 0;
  for (;;) {
    bool progress = false;
    bool alive = false;
    for (int s = begin; s < end; ++s) {
      Poller& p = *pollers_[static_cast<std::size_t>(s)];
      if (p.st == PState::kStopped) continue;
      alive = true;
      if (poll(p)) progress = true;
    }
    if (!alive) return;
    if (progress) {
      idle = 0;
      continue;
    }
    // Spin-then-yield: peers on other reactors owe us a handshake.
    ++stats.spins;
    if (++idle >= kSpinPasses) {
      std::this_thread::yield();
      idle = 0;
    }
  }
}

bool ShardedEngine::poll(Poller& p) {
  switch (p.st) {
    case PState::kRun: {
      // Opportunistic ring drain (to staging only) keeps remote producers'
      // rings from backing up while we execute.
      drain_rings(p, kDrainBatch);
      const bool more =
          p.phase == Phase::kRunKey
              ? p.sim->run_until_key_bounded(p.key_t, p.key_prio, kRunBatch)
              : p.sim->run_until_bounded(p.win_deadline, kRunBatch);
      if (more) return true;  // budget exhausted; resume next poll
      if (!p.sentinels_sent) {
        // Epoch boundary marker per outgoing lane: everything this window
        // produced for dst precedes it in FIFO order.
        const Simulator::Event sentinel{0, p.epoch, nullptr, p.epoch};
        for (int dst = 0; dst < num_shards_; ++dst)
          if (dst != p.s) lane_push(p, dst, sentinel);
        p.sentinels_sent = true;
      }
      p.st = PState::kFlush;
      [[fallthrough]];
    }
    case PState::kFlush: {
      if (!flush_overflow(p)) {
        drain_rings(p, kDrainBatch);
        return false;  // a consumer is behind; its poller runs next
      }
      slots_[static_cast<std::size_t>(p.s)].produced.store(
          p.epoch, std::memory_order_release);
      p.st = PState::kMergeDecide;
      [[fallthrough]];
    }
    case PState::kMergeDecide: {
      for (int j = 0; j < num_shards_; ++j) {
        if (slots_[static_cast<std::size_t>(j)].produced.load(
                std::memory_order_acquire) < p.epoch) {
          drain_rings(p, kDrainBatch);
          return false;
        }
      }
      merge_epoch(p);
      publish_min(p);
      decide_fast(p);
      if (p.st != PState::kAwaitMerged) return true;  // stepped into kRun
      [[fallthrough]];
    }
    case PState::kAwaitMerged: {
      for (int j = 0; j < num_shards_; ++j) {
        if (slots_[static_cast<std::size_t>(j)].merged.load(
                std::memory_order_acquire) < p.epoch)
          return false;
      }
      decide_slow(p);
      return true;
    }
    case PState::kAwaitPlan: {
      if (plan_gen_.load(std::memory_order_acquire) == p.plan_seen)
        return false;
      adopt_plan(p);
      return true;
    }
    case PState::kStopped:
      return false;
  }
  return false;
}

void ShardedEngine::lane_push(Poller& p, int dst, const Simulator::Event& e) {
  std::vector<Simulator::Event>& ovf =
      p.overflow[static_cast<std::size_t>(dst)];
  // A full ring never blocks: order is preserved by routing every push
  // through the overflow once it is non-empty. Every parked event counts as
  // growth pressure on the lane (read at the next quiescent boundary).
  if (!ovf.empty() || !ring(p.s, dst).try_push(e)) {
    ovf.push_back(e);
    ++p.overflow_pressure[static_cast<std::size_t>(dst)];
  }
}

bool ShardedEngine::flush_overflow(Poller& p) {
  bool all = true;
  for (int dst = 0; dst < num_shards_; ++dst) {
    std::vector<Simulator::Event>& ovf =
        p.overflow[static_cast<std::size_t>(dst)];
    if (ovf.empty()) continue;
    std::size_t& head = p.overflow_head[static_cast<std::size_t>(dst)];
    Ring& r = ring(p.s, dst);
    while (head < ovf.size() && r.try_push(ovf[head])) ++head;
    if (head == ovf.size()) {
      ovf.clear();
      head = 0;
    } else {
      all = false;
    }
  }
  return all;
}

std::size_t ShardedEngine::drain_rings(Poller& p, std::size_t max) {
  std::size_t n = 0;
  for (int src = 0; src < num_shards_; ++src) {
    if (src == p.s) continue;
    Stage& stg = p.in[static_cast<std::size_t>(src)];
    n += ring(src, p.s).drain(max, [&stg](const Simulator::Event& e) {
      stg.events.push_back(e);
    });
  }
  return n;
}

void ShardedEngine::merge_epoch(Poller& p) {
  // Deterministic merge: fixed source order, each lane consumed exactly up
  // to this epoch's sentinel. Which events land in the heap at epoch e is
  // therefore a pure function of the event streams — independent of when
  // the opportunistic drains ran or how far ahead a producer raced.
  for (int src = 0; src < num_shards_; ++src) {
    if (src == p.s) continue;
    Stage& stg = p.in[static_cast<std::size_t>(src)];
    Ring& r = ring(src, p.s);
    // produced >= epoch was acquired: everything this epoch needs —
    // including the sentinel — is already in the ring. Pull it all.
    while (r.drain(kDrainBatch, [&stg](const Simulator::Event& e) {
             stg.events.push_back(e);
           }) != 0) {
    }
    for (;;) {
      SPINELESS_DCHECK(stg.head < stg.events.size());
      const Simulator::Event e = stg.events[stg.head++];
      if (is_sentinel(e)) {
        SPINELESS_DCHECK(e.ctx == p.epoch);
        break;
      }
      p.sim->push_event(e);
    }
    if (stg.head == stg.events.size()) {
      stg.events.clear();
      stg.head = 0;
    } else if (stg.head > 1024) {
      stg.events.erase(stg.events.begin(),
                       stg.events.begin() +
                           static_cast<std::ptrdiff_t>(stg.head));
      stg.head = 0;
    }
  }
}

void ShardedEngine::publish_min(Poller& p) {
  Slot& sl = slots_[static_cast<std::size_t>(p.s)];
  Time t = 0;
  std::uint64_t prio = 0;
  sl.has_min = p.sim->peek(&t, &prio);
  sl.min_t = t;
  sl.min_prio = prio;
  sl.merged.store(p.epoch, std::memory_order_release);
}

ShardedEngine::GKey ShardedEngine::effective_global(std::uint64_t epoch) {
  GKey g;
  if (plan_.g_valid) {
    g.valid = true;
    g.t = plan_.g_t;
    g.prio = plan_.g_prio;
  }
  if (inbox_count_.load(std::memory_order_acquire) != 0) {
    std::lock_guard<std::mutex> lock(global_mu_);
    for (const GlobalPost& gp : global_inbox_) {
      // Posts tagged beyond our epoch cannot be due before the windows we
      // may still decide locally (their time is beyond the poster's lane
      // floor); ignoring them keeps the epoch-e view identical everywhere.
      if (gp.epoch > epoch) continue;
      if (!g.valid || gp.ev.t < g.t ||
          (gp.ev.t == g.t && gp.ev.prio < g.prio)) {
        g.valid = true;
        g.t = gp.ev.t;
        g.prio = gp.ev.prio;
      }
    }
  }
  return g;
}

void ShardedEngine::decide_fast(Poller& p) {
  // Fixed-step fast path: after epoch e's merge the next window is
  // [X, min(X + lookahead, deadline + 1)) with X = end of the window just
  // run — every event below X is executed and every in-flight arrival is
  // at or beyond X + lookahead >= the new end, so the step is safe without
  // reading any other shard's minimum. It is taken iff our own heap has
  // work inside it and no global interferes; both inputs are deterministic
  // and shared, so either every shard whose heap is busy steps into the
  // same window, or (see decide_slow) idle shards mirror it exactly.
  const Time x = p.x_next;
  Time end = x + lookahead_;
  if (end > deadline_ + 1) end = deadline_ + 1;
  const GKey g = effective_global(p.epoch);
  const bool due_g = g.valid && g.t <= deadline_ && g.t < x + lookahead_;
  const Slot& me = slots_[static_cast<std::size_t>(p.s)];
  if (!p.force_slow && !due_g && me.has_min && me.min_t < end) {
    adopt_window(p, Phase::kRun, /*win_deadline=*/end - 1, /*key_t=*/0,
                 /*key_prio=*/0, /*lane_floor=*/x + lookahead_,
                 /*x_next=*/end, /*force_slow=*/false);
    return;
  }
  p.st = PState::kAwaitMerged;
}

void ShardedEngine::decide_slow(Poller& p) {
  // All merged >= epoch: the published minima are exactly the epoch-e
  // values (a shard can only overwrite its slot after *we* produce the
  // next epoch), so every shard reaching this point folds the identical
  // global minimum and takes the identical branch.
  bool have = false;
  Time tmin = 0;
  std::uint64_t pmin = 0;
  for (int j = 0; j < num_shards_; ++j) {
    const Slot& sl = slots_[static_cast<std::size_t>(j)];
    if (!sl.has_min) continue;
    if (!have || sl.min_t < tmin || (sl.min_t == tmin && sl.min_prio < pmin)) {
      have = true;
      tmin = sl.min_t;
      pmin = sl.min_prio;
    }
  }
  const Time x = p.x_next;
  Time step_end = x + lookahead_;
  if (step_end > deadline_ + 1) step_end = deadline_ + 1;
  const GKey g = effective_global(p.epoch);
  const bool due_g = g.valid && g.t <= deadline_ && g.t < x + lookahead_;
  if (!p.force_slow && !due_g && have && tmin < step_end) {
    // Some shard was busy and already stepped (its minimum is inside the
    // step window); mirror its window so the epoch sequence stays global.
    adopt_window(p, Phase::kRun, step_end - 1, 0, 0, x + lookahead_, step_end,
                 false);
    return;
  }
  // From here no shard stepped (a busy shard's minimum would have made the
  // mirror branch fire), so a centralized or jumped window is consistent.
  const bool g_first =
      g.valid && g.t <= deadline_ &&
      (!have || g.t < tmin || (g.t == tmin && g.prio < pmin));
  if (g_first || !have || tmin > deadline_) {
    arrive_central(p);
    return;
  }
  // Jump: restart the fixed stepping at the exact global minimum. This is
  // what keeps sparse phases (reconvergence gaps, retransmission timeouts)
  // at O(1) windows per event cluster instead of creeping lookahead-sized
  // steps across the gap.
  Time end = tmin + lookahead_;
  if (end > deadline_) end = deadline_ + 1;  // run_until is inclusive
  if (g.valid && g.t < end) {
    // A global falls inside the window: shards run strictly below its key,
    // then rendezvous so it executes at its exact serial position.
    adopt_window(p, Phase::kRunKey, 0, g.t, g.prio, tmin + lookahead_,
                 /*x_next=*/tmin, /*force_slow=*/true);
  } else {
    adopt_window(p, Phase::kRun, end - 1, 0, 0, tmin + lookahead_,
                 /*x_next=*/end, /*force_slow=*/false);
  }
}

void ShardedEngine::arrive_central(Poller& p) {
  if (central_arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      num_shards_) {
    // Last arriver: every other shard is parked with a quiescent, fully
    // merged heap, so the plan may touch all of them single-threaded.
    central_arrived_.store(0, std::memory_order_relaxed);
    plan();
    adopt_plan(p);
  } else {
    p.st = PState::kAwaitPlan;
  }
}

void ShardedEngine::adopt_plan(Poller& p) {
  p.plan_seen = plan_gen_.load(std::memory_order_relaxed);
  if (plan_.phase == Phase::kStop) {
    p.st = PState::kStopped;
    return;
  }
  adopt_window(p, plan_.phase, plan_.win_deadline, plan_.key_t, plan_.key_prio,
               plan_.lane_floor, plan_.x_next,
               /*force_slow=*/plan_.phase == Phase::kRunKey);
}

void ShardedEngine::adopt_window(Poller& p, Phase phase, Time win_deadline,
                                 Time key_t, std::uint64_t key_prio,
                                 Time lane_floor, Time x_next,
                                 bool force_slow) {
  p.phase = phase;
  p.win_deadline = win_deadline;
  p.key_t = key_t;
  p.key_prio = key_prio;
  p.lane_floor = lane_floor;
  p.x_next = x_next;
  p.force_slow = force_slow;
  p.sentinels_sent = false;
  ++p.epoch;
  ++p.windows;
  p.st = PState::kRun;
}

void ShardedEngine::plan() {
  ++central_plans_;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    for (const GlobalPost& gp : global_inbox_) globals_.insert(gp.ev);
    global_inbox_.clear();
    inbox_count_.store(0, std::memory_order_relaxed);
  }
  for (;;) {
    // Earliest pending key across the shard heaps. This is exact, not a
    // bound: all heaps are quiescent, every ring and staging buffer is
    // fully merged, so nothing below it can still appear.
    bool have_min = false;
    Time tmin = 0;
    std::uint64_t pmin = 0;
    for (const auto& p : pollers_) {
      Time t;
      std::uint64_t pr;
      if (!p->sim->peek(&t, &pr)) continue;
      if (!have_min || t < tmin || (t == tmin && pr < pmin)) {
        have_min = true;
        tmin = t;
        pmin = pr;
      }
    }
    // A global strictly below every pending shard event executes now,
    // single-threaded on the control simulator; it may schedule into
    // shards or queue further globals, so re-plan from scratch.
    if (!globals_.empty()) {
      const Simulator::Event g = *globals_.begin();
      if (g.t <= deadline_ &&
          (!have_min || g.t < tmin || (g.t == tmin && g.prio < pmin))) {
        globals_.erase(globals_.begin());
        control_.dispatch_external(g);
        continue;
      }
    }
    if (!have_min || tmin > deadline_) {
      // Done: park every clock at the deadline, exactly like the serial
      // engine's run_until (heaps are quiescent — safe to touch here).
      for (const auto& p : pollers_) p->sim->run_until(deadline_);
      control_.run_until(deadline_);
      plan_.phase = Phase::kStop;
      break;
    }
    // Next window [tmin, end): any arrival produced inside lands at
    // >= tmin + lookahead >= end, so no shard can receive an event below
    // its execution front.
    Time end = tmin + lookahead_;
    if (end > deadline_) end = deadline_ + 1;  // run_until is inclusive
    plan_.lane_floor = tmin + lookahead_;
    if (!globals_.empty() && globals_.begin()->t < end) {
      // A global falls inside the window: shards run strictly below its
      // key, then it executes at its exact serial position.
      plan_.phase = Phase::kRunKey;
      plan_.key_t = globals_.begin()->t;
      plan_.key_prio = globals_.begin()->prio;
      plan_.x_next = tmin;
    } else {
      plan_.phase = Phase::kRun;
      plan_.win_deadline = end - 1;
      plan_.x_next = end;
    }
    break;
  }
  // Snapshot the earliest still-pending global: between central plans this
  // plus the epoch-tagged inbox is every shard's view of "the next global".
  plan_.g_valid = !globals_.empty();
  if (plan_.g_valid) {
    plan_.g_t = globals_.begin()->t;
    plan_.g_prio = globals_.begin()->prio;
  }
  plan_gen_.fetch_add(1, std::memory_order_release);
}

}  // namespace spineless::sim
