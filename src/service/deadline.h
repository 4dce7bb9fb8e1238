// The serving layer's ONLY wall-clock surface. Request deadlines and
// overload accounting are inherently wall-time concepts — a client's
// deadline_ms budget burns while the request waits in the admission queue
// and while its engine runs — but simulation itself must stay
// deterministic. The split: every wall-clock read in src/service funnels
// through this translation unit (allowlisted in tools/lint/lint.toml with
// this rationale); request EXECUTION only ever observes the clock through
// a cooperative CancelToken polled at checkpoint boundaries, so the
// simulated answer bytes never depend on when the clock fired — a
// deadline can only turn a packet answer into a degraded/overloaded
// response, never into a *different* packet answer.
#pragma once

namespace spineless::service {

// Monotonic wall-clock seconds (arbitrary epoch).
double wall_now_s();

struct Deadline {
  // expires_at_s <= 0 means "no deadline".
  double expires_at_s = 0;

  static Deadline none() { return {}; }
  static Deadline after_ms(double ms) {
    if (ms <= 0) return none();
    return {wall_now_s() + ms / 1e3};
  }

  bool active() const { return expires_at_s > 0; }
  bool expired() const { return active() && wall_now_s() >= expires_at_s; }
};

}  // namespace spineless::service
