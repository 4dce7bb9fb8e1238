// Discrete-event simulation core: a monotonic clock and a priority queue of
// events. Events are delivered to EventSink::on_event with an opaque
// context word.
//
// Ordering. Ties in time break by a deterministic priority key
//   prio = (scheduler oid << 38) | scheduler counter
// where the *scheduler* is the sink whose on_event is executing when
// schedule_at is called (or the simulator's root context for scheduling
// done outside any event, e.g. pre-run setup). Every entity that schedules
// events owns an oid — assigned deterministically at construction — and a
// counter that advances once per event it schedules. Unlike a global
// schedule-order sequence number, this key does not depend on the
// interleaving of *other* entities' executions, so the sharded parallel
// engine (sharded_engine.h) reproduces it exactly and serial and sharded
// runs execute the identical event sequence. Keys are globally unique
// (oid, counter) pairs, which also makes the queue's pop order a total
// order. Within one scheduler, ties at equal time still fire in schedule
// order, exactly like the old global-seq scheme.
//
// The queue is a few fixed-delay FIFOs in front of a hand-rolled 4-ary
// implicit heap. Almost every packet event is scheduled from inside a
// dispatch at one of a handful of constant delays (link propagation, the
// serialization of a full packet or of an ACK), so the first distinct
// delays seen from a dispatch each claim a FIFO, and later events at that
// delay are appended to it. now() never decreases, so a FIFO's times never
// decrease either; an append only has to move back past equal-time entries
// with a larger prio. Everything else — set-up pushes, barrier merges,
// zero delays, other delays — goes to the heap, whose shallow tree (each
// level a cache line of four 32-byte events) suits the far-future flow
// starts and timers left to it. Dispatch takes the smaller of the heap top
// and the FIFO heads, which is exactly the (t, prio) order a single heap
// pops.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/units.h"

namespace spineless::sim {

class Simulator;
class ShardRouter;

class EventSink {
 public:
  // Low bits of the priority key hold the per-scheduler counter; the high
  // bits hold the oid, so oids must fit in 64 - kPrioCounterBits bits.
  static constexpr int kPrioCounterBits = 38;
  static constexpr std::uint64_t kPrioCounterMask =
      (std::uint64_t{1} << kPrioCounterBits) - 1;
  static constexpr std::uint32_t kMaxOid =
      (std::uint32_t{1} << (64 - kPrioCounterBits)) - 1;

  // shard() values: >= 0 targets that shard of a sharded run; kShardLocal
  // always executes in whatever simulator scheduled it (links, self-timers
  // in serial runs); kShardGlobal executes barrier-synchronized between
  // shard windows (failure events, monitors).
  static constexpr std::int32_t kShardLocal = -1;
  static constexpr std::int32_t kShardGlobal = -2;

  virtual ~EventSink() = default;
  virtual void on_event(Simulator& sim, std::uint64_t ctx) = 0;

  // Assigns this sink's deterministic scheduling identity. Entities that
  // participate in sharded runs must be given one in a construction order
  // identical across serial and sharded execution (Network::next_oid does
  // this); sinks without one get a lazy oid on first schedule, which is
  // deterministic only in serial runs.
  void set_event_identity(std::uint32_t oid, std::int32_t shard) noexcept {
    SPINELESS_DCHECK(oid <= kMaxOid);
    prio_key_ = static_cast<std::uint64_t>(oid) << kPrioCounterBits;
    shard_ = shard;
  }
  std::int32_t shard() const noexcept { return shard_; }

  // --- Checkpoint support (sim/checkpoint.h) ---
  // A sink's identity (oid) names it across save/restore: the restore path
  // rebuilds the experiment in the same construction order, so equal oids
  // mean "the same entity". The raw key (oid + live counter) must round-
  // trip so a restored scheduler hands out the exact priorities an
  // uninterrupted run would.
  bool has_event_identity() const noexcept {
    return prio_key_ != kPrioUnassigned;
  }
  std::uint32_t event_oid() const noexcept {
    return static_cast<std::uint32_t>(prio_key_ >> kPrioCounterBits);
  }
  std::uint64_t prio_state() const noexcept { return prio_key_; }
  void restore_prio_state(std::uint64_t key) noexcept { prio_key_ = key; }

 private:
  friend class Simulator;
  static constexpr std::uint64_t kPrioUnassigned = ~std::uint64_t{0};

  // Next priority key this sink will hand out as a scheduler: oid in the
  // high bits, counter in the low bits, bumped per scheduled event.
  std::uint64_t prio_key_ = kPrioUnassigned;
  std::int32_t shard_ = kShardLocal;
};

// Cross-shard event transport, implemented by the sharded engine. A
// simulator with a router installed forwards events whose target sink
// belongs to another shard instead of pushing them onto its own heap.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  struct RoutedEvent {
    Time t;
    std::uint64_t prio;
    EventSink* sink;
    std::uint64_t ctx;
  };

  // Handoff from src_shard's window execution into dst_shard's lane;
  // merged into dst's heap at the next barrier. src_shard may be
  // Simulator::kControlShard for single-threaded contexts (setup, global
  // events), where the push lands directly in the target heap.
  virtual void post(std::int32_t src_shard, std::int32_t dst_shard,
                    const RoutedEvent& e) = 0;
  // Event for a kShardGlobal sink: executed barrier-synchronized, in
  // exact (t, prio) order relative to every shard event.
  virtual void post_global(std::int32_t src_shard, const RoutedEvent& e) = 0;
};

class Simulator {
 public:
  struct Event {
    Time t;
    std::uint64_t prio;
    EventSink* sink;
    std::uint64_t ctx;
    bool before(const Event& o) const noexcept {
      if (t != o.t) return t < o.t;
      return prio < o.prio;
    }
  };

  // self_shard() of a simulator driven single-threaded by the sharded
  // engine (setup + global events); its cross-shard posts go straight into
  // the target heaps instead of lanes.
  static constexpr std::int32_t kControlShard = -3;

  Simulator() { heap_.reserve(1024); }

  Time now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  void schedule_at(Time t, EventSink* sink, std::uint64_t ctx) {
    SPINELESS_DCHECK(t >= now_);
    SPINELESS_DCHECK(sink != nullptr);
    const std::uint64_t prio = next_prio();
    if (router_ != nullptr && route_external(t, prio, sink, ctx)) return;
    push(Event{t, prio, sink, ctx});
  }
  void schedule_after(Time dt, EventSink* sink, std::uint64_t ctx) {
    schedule_at(now_ + dt, sink, ctx);
  }

  bool empty() const noexcept { return top().ev == nullptr; }

  // Runs events with time <= deadline; returns true if events remain.
  // Advances now() to the deadline even if the queue drains first.
  bool run_until(Time deadline);
  // Runs until the queue drains.
  void run();

  // --- Sharded-engine interface (see sharded_engine.h) ---

  // Installs the cross-shard router; self_shard is this simulator's shard
  // index (or kControlShard). Events for sinks of other shards are posted
  // to the router instead of the local heap.
  void set_shard_context(ShardRouter* router, std::int32_t self_shard) {
    router_ = router;
    self_shard_ = self_shard;
  }
  std::int32_t self_shard() const noexcept { return self_shard_; }

  // Runs events with key strictly below (t_bound, prio_bound) and, unlike
  // run_until, leaves now() at the last executed event — the bound is an
  // ordering fence (a pending global event's key), not a time advance.
  void run_until_key(Time t_bound, std::uint64_t prio_bound);

  // Key of the earliest pending event; false if none is pending. Only
  // meaningful between runs (single-threaded phases of the engine).
  bool peek(Time* t, std::uint64_t* prio) const {
    const Event* e = top().ev;
    if (e == nullptr) return false;
    *t = e->t;
    *prio = e->prio;
    return true;
  }

  // Merges an externally routed event into the heap. Must not be called
  // while this simulator is mid-dispatch (the engine calls it only at
  // barriers and during setup, when the simulator is quiescent).
  void push_event(const Event& e) {
    SPINELESS_DCHECK(e.t >= now_);
    push_heap(e);
  }

  // Executes one externally held event (a global, on the engine's control
  // simulator) as if it had been popped from the heap: advances now(),
  // counts it, and attributes scheduling done inside to the sink.
  void dispatch_external(const Event& e);

  // --- Checkpoint support (sim/checkpoint.h) ---
  // Every pending event, heap and FIFOs alike, in (t, prio) order: the
  // order they would be dispatched in, independent of how the queue holds
  // them. Only valid while quiescent (between runs).
  std::vector<Event> pending_events() const;
  std::uint64_t root_prio_state() const noexcept { return root_key_; }
  std::uint32_t lazy_oid_state() const noexcept { return lazy_oid_; }

  // Replaces the full engine state on a freshly-constructed experiment.
  // The pre-run queue holds only setup events (no owned payloads), so
  // dropping it is leak-free. `events` must be in strict (t, prio) order
  // (the caller checks), and a sorted array is a valid heap, so it becomes
  // the heap as-is and the FIFOs start empty.
  void restore_state(Time now, std::uint64_t processed,
                     std::uint64_t root_key, std::uint32_t lazy_oid,
                     std::vector<Event> events);

 private:
  std::uint64_t next_prio() {
    if (*cur_key_ == EventSink::kPrioUnassigned) assign_lazy_oid();
    SPINELESS_DCHECK((*cur_key_ & EventSink::kPrioCounterMask) !=
                     EventSink::kPrioCounterMask);
    return (*cur_key_)++;
  }
  void assign_lazy_oid();
  // Returns true if the event was handed to the router (target sink lives
  // in another shard or is global); out-of-line, serial runs never get here.
  bool route_external(Time t, std::uint64_t prio, EventSink* sink,
                      std::uint64_t ctx);
  // The earliest pending event and where it sits: a FIFO index, or
  // kFifos for the heap top. Computed once per dispatch — every run loop,
  // peek and empty go through it, and dispatch() takes what it returned.
  struct Top {
    const Event* ev;  // nullptr when nothing is pending
    std::size_t src;
  };
  Top top() const noexcept {
    Top best{heap_.empty() ? nullptr : &heap_[0], kFifos};
    for (std::size_t i = 0; i < claimed_; ++i) {
      const Fifo& f = fifos_[i];
      if (f.head == f.tail) continue;
      const Event& e = f.front();
      if (best.ev == nullptr || e.before(*best.ev)) best = {&e, i};
    }
    return best;
  }

  // Removes the top event from its source, then executes it, attributing
  // scheduling done inside to its sink.
  void dispatch(Top top) {
    const Event ev = *top.ev;
    if (top.src == kFifos) {
      pop_heap();
    } else {
      ++fifos_[top.src].head;
    }
    now_ = ev.t;
    ++processed_;
    cur_key_ = &ev.sink->prio_key_;
    ev.sink->on_event(*this, ev.ctx);
  }

  void push(const Event& e) {
    // Only events scheduled from inside a dispatch (cur_key_ is the
    // executing sink's) may join a FIFO: now() is then the time of an event
    // already popped, so nothing pending precedes e.t = now() + dt for
    // dt > 0. Set-up pushes stay in the heap, so flow starts at scattered
    // times cannot claim the FIFOs.
    const Time dt = e.t - now_;
    if (cur_key_ != &root_key_ && dt > 0) {
      for (std::size_t i = 0; i < claimed_; ++i) {
        if (fifos_[i].delay == dt) {
          fifos_[i].append(e);
          return;
        }
      }
      if (claimed_ < kFifos) {
        fifos_[claimed_].delay = dt;
        fifos_[claimed_++].append(e);
        return;
      }
    }
    push_heap(e);
  }

  void push_heap(const Event& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!heap_[i].before(heap_[parent])) break;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  // Removes the minimum; heap_ must be non-empty.
  void pop_heap() {
    heap_[0] = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    for (std::size_t i = 0;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c)
        if (heap_[c].before(heap_[best])) best = c;
      if (!heap_[best].before(heap_[i])) break;
      std::swap(heap_[i], heap_[best]);
      i = best;
    }
  }

  // Events scheduled at one fixed delay, in (t, prio) order: a ring of
  // power-of-two capacity, allocated on first use and doubled when full.
  // head and tail count up without wrapping; masking maps them to slots.
  struct Fifo {
    Time delay = 0;  // 0 while unclaimed
    std::vector<Event> ring;
    std::size_t head = 0;
    std::size_t tail = 0;

    const Event& front() const noexcept {
      return ring[head & (ring.size() - 1)];
    }
    // Times arrive non-decreasing, so e can only belong before entries at
    // its own time with a larger prio: equal-time events scheduled by
    // different sinks, dispatched in the reverse of their prio order.
    void append(const Event& e) {
      if (tail - head == ring.size()) grow();
      const std::size_t mask = ring.size() - 1;
      std::size_t i = tail++;
      for (; i != head; --i) {
        const Event& prev = ring[(i - 1) & mask];
        if (!e.before(prev)) break;
        ring[i & mask] = prev;
      }
      ring[i & mask] = e;
    }
    void grow();
  };
  // Fixed delays given a FIFO. The packet cells' first four are link
  // propagation, the serialization of a data packet and of an ACK, and
  // the retransmit timer's 1 ms floor; six FIFOs measured no faster.
  // Further delays go to the heap.
  static constexpr std::size_t kFifos = 4;

  std::vector<Event> heap_;  // 4-ary min-heap ordered by (t, prio)
  std::array<Fifo, kFifos> fifos_;
  std::size_t claimed_ = 0;  // fifos_[0, claimed_) have a delay
  Time now_ = 0;
  std::uint64_t processed_ = 0;

  // Priority key of the root (outside-any-event) scheduling context: oid 0.
  std::uint64_t root_key_ = 0;
  // Key slot of whichever context is scheduling right now: the executing
  // sink's during dispatch, the root's otherwise.
  std::uint64_t* cur_key_ = &root_key_;
  // Lazy oids for sinks never given an identity, assigned from the top of
  // the oid space downward so they cannot collide with Network-assigned
  // oids, which grow upward from 1.
  std::uint32_t lazy_oid_ = EventSink::kMaxOid;

  ShardRouter* router_ = nullptr;
  std::int32_t self_shard_ = EventSink::kShardLocal;
};

}  // namespace spineless::sim
