#include "flowsim/flow_level_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace spineless::flowsim {

FlowLevelSimulator::FlowLevelSimulator(const Graph& g, double link_rate_bps)
    : layout_(g),
      problem_(layout_.capacities(link_rate_bps, link_rate_bps)) {
  SPINELESS_CHECK(link_rate_bps > 0);
}

int FlowLevelSimulator::add_flow(HostId src, HostId dst, std::int64_t bytes,
                                 Time start, const Path& path) {
  SPINELESS_CHECK(src != dst && bytes > 0 && start >= 0);
  problem_.add_flow(layout_.flow(src, dst, path));  // validates eagerly
  FlowResult r;
  r.src = src;
  r.dst = dst;
  r.bytes = bytes;
  r.start = start;
  results_.push_back(r);
  return static_cast<int>(results_.size()) - 1;
}

std::size_t FlowLevelSimulator::run(Time deadline) {
  // Arrival order.
  std::vector<std::size_t> order(results_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return results_[a].start < results_[b].start;
  });

  std::vector<ActiveFlow> active;
  std::vector<int> ids;  // active's problem_ ids, in active order
  std::size_t next_arrival = 0;
  Time now = 0;
  std::size_t completed = 0;

  auto drain = [&](Time dt) {
    const double secs = units::to_seconds(dt);
    for (auto& f : active)
      f.remaining_bytes -= f.rate / 8.0 * secs;
  };

  while ((next_arrival < order.size() || !active.empty()) &&
         now <= deadline) {
    // Next completion among active flows.
    Time completion = std::numeric_limits<Time>::max();
    for (const auto& f : active) {
      if (f.rate <= 0) continue;
      const double secs = f.remaining_bytes * 8.0 / f.rate;
      const Time t =
          now + static_cast<Time>(std::ceil(secs * units::kSecond));
      completion = std::min(completion, t);
    }
    const Time arrival = next_arrival < order.size()
                             ? results_[order[next_arrival]].start
                             : std::numeric_limits<Time>::max();

    const Time next_event = std::min(arrival, completion);
    if (next_event > deadline) break;  // nothing more inside the horizon
    if (arrival <= completion) {
      drain(arrival - now);
      now = arrival;
      const std::size_t id = order[next_arrival++];
      active.push_back({id, static_cast<double>(results_[id].bytes), 0.0});
    } else {
      drain(completion - now);
      now = completion;
      // Retire every flow that drained (tolerance: one bit).
      for (std::size_t i = 0; i < active.size();) {
        if (active[i].remaining_bytes <= kDrainedBytes) {
          results_[active[i].id].finish = now;
          ++completed;
          active[i] = active.back();
          active.pop_back();
        } else {
          ++i;
        }
      }
    }
    ids.clear();
    for (const ActiveFlow& f : active) ids.push_back(static_cast<int>(f.id));
    const std::vector<double> rates = problem_.solve(ids);
    for (std::size_t i = 0; i < active.size(); ++i) active[i].rate = rates[i];
  }
  return completed;
}

Summary FlowLevelSimulator::fct_ms() const {
  Summary s;
  for (const auto& r : results_)
    if (r.completed()) s.add(units::to_millis(r.fct()));
  return s;
}

}  // namespace spineless::flowsim
