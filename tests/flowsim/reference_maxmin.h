// Test-only reference for flowsim::MaxMinProblem::solve: the progressive
// filling of the single-shot solver it replaced, kept verbatim (one problem
// per call over the full capacity vector, flows in add order, per-flow caps
// or none). The persistent problem must return the same rates bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"

namespace spineless::flowsim {

inline std::vector<double> reference_solve_capped(
    const std::vector<double>& capacity,
    const std::vector<std::vector<int>>& flows,
    const std::vector<double>& caps) {
  const std::size_t nf = flows.size();
  const std::size_t nr = capacity.size();
  const bool capped = !caps.empty();
  if (capped) {
    SPINELESS_CHECK_MSG(caps.size() == nf,
                        "solve_capped: " << caps.size() << " caps for " << nf
                                         << " flows — pass one cap per flow "
                                            "or an empty vector for no caps");
    for (std::size_t f = 0; f < nf; ++f) {
      // A negative cap would make `caps[f] - rate[f]` negative and stall
      // the filling; NaN poisons every min(). +infinity means uncapped.
      SPINELESS_CHECK_MSG(caps[f] >= 0 && !std::isnan(caps[f]),
                          "solve_capped: caps[" << f << "] = " << caps[f]
                              << " — caps must be >= 0 and not NaN");
    }
  }
  std::vector<double> rate(nf, 0.0);
  std::vector<double> remaining = capacity;
  // Active consumption count per resource.
  std::vector<double> load(nr, 0.0);
  std::vector<char> active(nf, 0);
  std::size_t num_active = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    if (flows[f].empty()) continue;  // unconstrained: leave at rate 0
    active[f] = 1;
    ++num_active;
    for (int r : flows[f]) load[static_cast<std::size_t>(r)] += 1.0;
  }
  // Compact list of resources any flow crosses: every scan below walks this
  // list instead of the full capacity array, so sparse problems on huge
  // networks (the hybrid windowed solve) cost O(touched) per filling round.
  std::vector<int> touched;
  for (std::size_t r = 0; r < nr; ++r) {
    if (load[r] > 0.0) touched.push_back(static_cast<int>(r));
  }

  constexpr double kEps = 1e-12;
  // Allocated once; only touched entries are ever set, and they are cleared
  // again before the next round (an O(nr) refill per round would undo the
  // compact-iteration win).
  std::vector<char> saturated(nr, 0);
  while (num_active > 0) {
    // Drop resources whose last crossing flow froze — keeps the scans
    // shrinking as the filling proceeds.
    std::erase_if(touched,
                  [&](int r) { return load[static_cast<std::size_t>(r)] <= kEps; });

    // Bottleneck increment: the smallest per-flow headroom across loaded
    // resources, further limited by the nearest active flow cap.
    double inc = std::numeric_limits<double>::infinity();
    for (int r : touched) {
      const auto ri = static_cast<std::size_t>(r);
      inc = std::min(inc, remaining[ri] / load[ri]);
    }
    if (capped) {
      for (std::size_t f = 0; f < nf; ++f) {
        if (active[f]) inc = std::min(inc, caps[f] - rate[f]);
      }
    }
    SPINELESS_CHECK(std::isfinite(inc));
    inc = std::max(inc, 0.0);

    for (int r : touched) {
      const auto ri = static_cast<std::size_t>(r);
      remaining[ri] -= inc * load[ri];
    }

    // Freeze every active flow crossing a saturated resource or pinned at
    // its cap. (Tolerance is relative to the original capacity scale.)
    for (int r : touched) {
      const auto ri = static_cast<std::size_t>(r);
      if (remaining[ri] <= 1e-9 * std::max(1.0, capacity[ri]))
        saturated[ri] = 1;
    }
    bool any_frozen = false;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!active[f]) continue;
      rate[f] += inc;
      bool freeze =
          capped && rate[f] >= caps[f] - 1e-9 * std::max(1.0, caps[f]);
      if (!freeze) {
        for (int r : flows[f]) {
          if (saturated[static_cast<std::size_t>(r)]) {
            freeze = true;
            break;
          }
        }
      }
      if (freeze) {
        active[f] = 0;
        --num_active;
        any_frozen = true;
        for (int r : flows[f]) load[static_cast<std::size_t>(r)] -= 1.0;
      }
    }
    SPINELESS_CHECK_MSG(any_frozen || num_active == 0,
                        "water-filling made no progress");
    for (int r : touched) saturated[static_cast<std::size_t>(r)] = 0;
  }
  return rate;
}

}  // namespace spineless::flowsim
