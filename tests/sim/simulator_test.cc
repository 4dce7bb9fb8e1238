#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace spineless::sim {
namespace {

// Records (time, ctx) of every delivery.
class Recorder : public EventSink {
 public:
  void on_event(Simulator& sim, std::uint64_t ctx) override {
    log.emplace_back(sim.now(), ctx);
  }
  std::vector<std::pair<Time, std::uint64_t>> log;
};

TEST(Simulator, DeliversInTimeOrder) {
  Simulator sim;
  Recorder r;
  sim.schedule_at(30, &r, 3);
  sim.schedule_at(10, &r, 1);
  sim.schedule_at(20, &r, 2);
  sim.run();
  ASSERT_EQ(r.log.size(), 3u);
  EXPECT_EQ(r.log[0], (std::pair<Time, std::uint64_t>{10, 1}));
  EXPECT_EQ(r.log[1], (std::pair<Time, std::uint64_t>{20, 2}));
  EXPECT_EQ(r.log[2], (std::pair<Time, std::uint64_t>{30, 3}));
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  Recorder r;
  for (std::uint64_t i = 0; i < 10; ++i) sim.schedule_at(5, &r, i);
  sim.run();
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(r.log[i].second, i);
}

TEST(Simulator, ClockAdvancesMonotonically) {
  Simulator sim;
  Recorder r;
  sim.schedule_at(100, &r, 0);
  EXPECT_EQ(sim.now(), 0);
  sim.run();
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  // An event that schedules a follow-up relative to its own firing time.
  class Chained : public EventSink {
   public:
    void on_event(Simulator& sim, std::uint64_t ctx) override {
      fired.push_back(sim.now());
      if (ctx > 0) sim.schedule_after(50, this, ctx - 1);
    }
    std::vector<Time> fired;
  } chain;
  sim.schedule_at(10, &chain, 2);
  sim.run();
  ASSERT_EQ(chain.fired.size(), 3u);
  EXPECT_EQ(chain.fired[1], 60);
  EXPECT_EQ(chain.fired[2], 110);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  Recorder r;
  sim.schedule_at(10, &r, 0);
  sim.schedule_at(100, &r, 1);
  EXPECT_TRUE(sim.run_until(50));
  EXPECT_EQ(r.log.size(), 1u);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_FALSE(sim.run_until(200));
  EXPECT_EQ(r.log.size(), 2u);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsProcessedCounter) {
  Simulator sim;
  Recorder r;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, &r, 0);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, EventAtDeadlineIsDelivered) {
  Simulator sim;
  Recorder r;
  sim.schedule_at(50, &r, 0);
  sim.run_until(50);
  EXPECT_EQ(r.log.size(), 1u);
}

// --- Exact dispatch order ---------------------------------------------------
//
// A seeded property test: every dispatch must be the (t, prio) minimum of a
// reference model of the pending set. Sinks schedule at a few fixed delays
// (the packet engine's propagation, serialization and ACK delays, scaled
// down, plus a long timer), at random delays on a coarse grid and at zero
// delay. Many events therefore tie in time, and the order tied handlers
// run in (their own events' prios) is unrelated to the prios they stamp,
// so same-delay events from different schedulers often arrive in the
// reverse of their prio order. Each step mixes root-context pushes,
// push_event merges and every run form, and checks peek, empty and where
// each run stops.

class OrderModel;

class ModelSink : public EventSink {
 public:
  explicit ModelSink(OrderModel* model) : model_(model) {}
  void on_event(Simulator& sim, std::uint64_t ctx) override;

 private:
  OrderModel* model_;
};

class OrderModel {
 public:
  static constexpr int kSinks = 6;
  static constexpr std::array<Time, 4> kFixedDelays = {1000, 1200, 32,
                                                       100000};

  explicit OrderModel(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kSinks; ++i) {
      sinks_.push_back(std::make_unique<ModelSink>(this));
      // Oids run against the sinks' index order.
      sinks_.back()->set_event_identity(
          static_cast<std::uint32_t>(kSinks - i), EventSink::kShardLocal);
    }
  }

  Time draw_delay() {
    const std::uint64_t pick = rng_.uniform(10);
    if (pick < 6) return kFixedDelays[pick % kFixedDelays.size()];
    if (pick < 8) return 8 * between(1, 200);  // coarse: ties
    if (pick < 9) return between(1, 5000);
    return 0;
  }

  EventSink* draw_sink() {
    return sinks_[rng_.uniform(sinks_.size())].get();
  }

  // Schedules through the simulator from whatever context is current,
  // recording the key schedule_at stamps: the scheduler's live key.
  void schedule(std::uint64_t scheduler_key, Time t) {
    const std::uint64_t id = next_id_++;
    pending_.emplace(t, scheduler_key, id);
    sim.schedule_at(t, draw_sink(), id);
  }

  // An externally routed event, keyed by an oid no sink holds.
  void push_external(Time t) {
    const std::uint64_t id = next_id_++;
    const std::uint64_t prio = external_key_++;
    pending_.emplace(t, prio, id);
    sim.push_event(Simulator::Event{t, prio, draw_sink(), id});
  }

  void dispatched(ModelSink* sink, std::uint64_t ctx) {
    ASSERT_FALSE(pending_.empty());
    const auto [t, prio, id] = *pending_.begin();
    ASSERT_EQ(ctx, id) << "dispatch " << dispatched_ << " out of order";
    ASSERT_EQ(sim.now(), t);
    pending_.erase(pending_.begin());
    ++dispatched_;
    // Each dispatch schedules 0-2 successors while the budget lasts.
    const std::uint64_t children = budget_ > 0 ? rng_.uniform(3) : 0;
    for (std::uint64_t c = 0; c < children; ++c, --budget_)
      schedule(sink->prio_state(), sim.now() + draw_delay());
  }

  // Root-context pushes and push_event merges between runs.
  void inject() {
    const std::uint64_t n = rng_.uniform(4);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Time t = sim.now() + draw_delay();
      if (rng_.uniform(2) == 0) {
        schedule(sim.root_prio_state(), t);
      } else {
        push_external(t);
      }
    }
  }

  // True if the model's earliest event lies strictly below the key bound.
  bool min_below(Time t, std::uint64_t prio) const {
    if (pending_.empty()) return false;
    const Time mt = std::get<0>(*pending_.begin());
    return mt < t || (mt == t && std::get<1>(*pending_.begin()) < prio);
  }

  // One step: a random run form, then checks of where it stopped.
  void step() {
    Time pt = 0;
    std::uint64_t pp = 0;
    ASSERT_EQ(sim.peek(&pt, &pp), !pending_.empty());
    ASSERT_EQ(sim.empty(), pending_.empty());
    if (!pending_.empty()) {
      ASSERT_EQ(pt, std::get<0>(*pending_.begin()));
      ASSERT_EQ(pp, std::get<1>(*pending_.begin()));
    }
    const Time start = sim.now();
    if (rng_.uniform(2) == 0) {
      const Time deadline = start + between(0, 3000);
      const bool more = sim.run_until(deadline);
      ASSERT_EQ(more, !pending_.empty());
      ASSERT_FALSE(min_below(deadline, ~std::uint64_t{0}));
      ASSERT_EQ(sim.now(), deadline);
    } else {
      // The engine's fence form: at a pending key (exclusive) or at a
      // random key past the clock.
      Time t = start + between(0, 3000);
      std::uint64_t prio = rng_.next();
      if (!pending_.empty() && rng_.uniform(2) == 0) {
        auto it = pending_.begin();
        std::advance(it, rng_.uniform(std::min<std::size_t>(
                             pending_.size(), 8)));
        t = std::get<0>(*it);
        prio = std::get<1>(*it);
      }
      sim.run_until_key(t, prio);
      ASSERT_FALSE(min_below(t, prio));
      // The fence is an ordering bound, not a time advance: the clock
      // stays at the last executed event.
      ASSERT_LE(sim.now(), std::max(start, t));
    }
    inject();
  }

  bool done() const { return pending_.empty() && budget_ <= 0; }
  std::uint64_t dispatched() const { return dispatched_; }

  Simulator sim;

 private:
  // Uniform integer in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    rng_.uniform(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  Rng rng_;
  std::vector<std::unique_ptr<ModelSink>> sinks_;
  std::set<std::tuple<Time, std::uint64_t, std::uint64_t>> pending_;
  std::uint64_t next_id_ = 0;
  std::uint64_t dispatched_ = 0;
  std::int64_t budget_ = 20000;
  std::uint64_t external_key_ =
      std::uint64_t{1000} << EventSink::kPrioCounterBits;
};

void ModelSink::on_event(Simulator&, std::uint64_t ctx) {
  model_->dispatched(this, ctx);
}

TEST(SimulatorOrder, DispatchesInExactKeyOrderUnderEveryRunForm) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    OrderModel model(seed);
    for (int i = 0; i < 64; ++i)
      model.schedule(model.sim.root_prio_state(), model.draw_delay());
    while (!model.done()) {
      model.step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(model.dispatched(), 20000u);
  }
}

}  // namespace
}  // namespace spineless::sim
