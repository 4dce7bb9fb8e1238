#include "sim/simulator.h"

#include <algorithm>

namespace spineless::sim {

bool Simulator::run_until(Time deadline) {
  Top t = top();
  for (; t.ev != nullptr && t.ev->t <= deadline; t = top()) dispatch(t);
  cur_key_ = &root_key_;
  if (now_ < deadline) now_ = deadline;
  return t.ev != nullptr;
}

void Simulator::run_until_key(Time t_bound, std::uint64_t prio_bound) {
  const auto below = [&](const Event& e) {
    return e.t < t_bound || (e.t == t_bound && e.prio < prio_bound);
  };
  for (Top t = top(); t.ev != nullptr && below(*t.ev); t = top()) dispatch(t);
  cur_key_ = &root_key_;
}

void Simulator::run() {
  for (Top t = top(); t.ev != nullptr; t = top()) dispatch(t);
  cur_key_ = &root_key_;
}

std::vector<Simulator::Event> Simulator::pending_events() const {
  std::vector<Event> events = heap_;
  for (std::size_t i = 0; i < claimed_; ++i) {
    const Fifo& f = fifos_[i];
    for (std::size_t k = f.head; k != f.tail; ++k)
      events.push_back(f.ring[k & (f.ring.size() - 1)]);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.before(b); });
  return events;
}

void Simulator::restore_state(Time now, std::uint64_t processed,
                              std::uint64_t root_key, std::uint32_t lazy_oid,
                              std::vector<Event> events) {
  heap_ = std::move(events);
  for (Fifo& f : fifos_) f.head = f.tail = 0;
  now_ = now;
  processed_ = processed;
  root_key_ = root_key;
  lazy_oid_ = lazy_oid;
  cur_key_ = &root_key_;
}

void Simulator::Fifo::grow() {
  std::vector<Event> bigger(ring.empty() ? 256 : 2 * ring.size());
  const std::size_t n = tail - head;
  for (std::size_t k = 0; k < n; ++k)
    bigger[k] = ring[(head + k) & (ring.size() - 1)];
  ring = std::move(bigger);
  head = 0;
  tail = n;
}

void Simulator::dispatch_external(const Event& e) {
  SPINELESS_DCHECK(e.t >= now_);
  now_ = e.t;
  ++processed_;
  cur_key_ = &e.sink->prio_key_;
  e.sink->on_event(*this, e.ctx);
  cur_key_ = &root_key_;
}

void Simulator::assign_lazy_oid() {
  SPINELESS_DCHECK(lazy_oid_ > 0);
  *cur_key_ = static_cast<std::uint64_t>(lazy_oid_--)
              << EventSink::kPrioCounterBits;
}

bool Simulator::route_external(Time t, std::uint64_t prio, EventSink* sink,
                               std::uint64_t ctx) {
  const std::int32_t target = sink->shard_;
  if (target == self_shard_ || target == EventSink::kShardLocal) {
    // kShardLocal sinks scheduled from the control context would land in
    // the control heap, which never runs — every sink a sharded run
    // touches from setup/global context must carry a real shard or be
    // global (Network assigns these identities).
    SPINELESS_CHECK_MSG(
        self_shard_ != kControlShard || target != EventSink::kShardLocal,
        "scheduling a shard-local sink from the sharded control context");
    return false;
  }
  const ShardRouter::RoutedEvent e{t, prio, sink, ctx};
  if (target == EventSink::kShardGlobal) {
    router_->post_global(self_shard_, e);
  } else {
    router_->post(self_shard_, target, e);
  }
  return true;
}

}  // namespace spineless::sim
