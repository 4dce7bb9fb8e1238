#include "flowsim/maxmin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace spineless::flowsim {

namespace {

void check_capacity(int r, double capacity) {
  // NaN fails every comparison, so `>= 0` alone would admit it and the
  // filling loop would silently never saturate the resource.
  SPINELESS_CHECK_MSG(capacity >= 0 && !std::isnan(capacity),
                      "MaxMinProblem: capacity[" << r << "] = " << capacity
                          << " — capacities must be >= 0 and not NaN");
}

void check_route(const std::vector<int>& resources, int num_resources) {
  for (int r : resources)
    SPINELESS_CHECK_MSG(r >= 0 && r < num_resources,
                        "MaxMinProblem: route resource "
                            << r << " outside [0, " << num_resources << ")");
}

}  // namespace

MaxMinProblem::MaxMinProblem(std::vector<double> capacities)
    : capacity_(std::move(capacities)), index_(capacity_.size(), -1) {
  for (int r = 0; r < num_resources(); ++r)
    check_capacity(r, capacity_[static_cast<std::size_t>(r)]);
}

int MaxMinProblem::add_flow(std::vector<int> resources) {
  check_route(resources, num_resources());
  flows_.push_back(std::move(resources));
  return num_flows() - 1;
}

void MaxMinProblem::set_route(int f, std::vector<int> resources) {
  SPINELESS_CHECK_MSG(f >= 0 && f < num_flows(),
                      "set_route: flow " << f << " outside [0, "
                                         << num_flows() << ")");
  check_route(resources, num_resources());
  flows_[static_cast<std::size_t>(f)] = std::move(resources);
}

void MaxMinProblem::set_capacity(int r, double capacity) {
  SPINELESS_CHECK_MSG(r >= 0 && r < num_resources(),
                      "set_capacity: resource " << r << " outside [0, "
                                                << num_resources() << ")");
  check_capacity(r, capacity);
  capacity_[static_cast<std::size_t>(r)] = capacity;
}

std::vector<double> MaxMinProblem::solve(std::span<const int> ids,
                                         std::span<const double> caps) {
  const std::size_t nf = ids.size();
  const bool capped = !caps.empty();
  SPINELESS_CHECK_MSG(!capped || caps.size() == nf,
                      "solve: " << caps.size() << " caps for " << nf
                                << " flows — pass one cap per flow or none");
  for (std::size_t k = 0; k < nf; ++k) {
    SPINELESS_CHECK_MSG(ids[k] >= 0 && ids[k] < num_flows(),
                        "solve: flow " << ids[k] << " outside [0, "
                                       << num_flows() << ")");
    // A negative cap would make `caps[k] - rate[k]` negative and stall
    // the filling; NaN poisons every min(). +infinity means uncapped.
    SPINELESS_CHECK_MSG(!capped || (caps[k] >= 0 && !std::isnan(caps[k])),
                        "solve: caps[" << k << "] = " << caps[k]
                                       << " — caps must be >= 0 and not NaN");
  }

  // Compact the resources the listed flows cross, in first-crossing
  // order, and re-express each route in those indices (hops[begin[k] ..
  // begin[k + 1]) is ids[k]'s route). Every array below is O(crossed).
  std::vector<int> touched;
  std::vector<std::size_t> begin(nf + 1, 0);
  std::vector<int> hops;
  for (std::size_t k = 0; k < nf; ++k) {
    begin[k] = hops.size();
    for (int r : flows_[static_cast<std::size_t>(ids[k])]) {
      int& c = index_[static_cast<std::size_t>(r)];
      if (c < 0) {
        c = static_cast<int>(touched.size());
        touched.push_back(r);
      }
      hops.push_back(c);
    }
  }
  begin[nf] = hops.size();
  for (int r : touched) index_[static_cast<std::size_t>(r)] = -1;

  const std::size_t nr = touched.size();
  std::vector<double> capacity(nr);
  for (std::size_t c = 0; c < nr; ++c)
    capacity[c] = capacity_[static_cast<std::size_t>(touched[c])];
  std::vector<double> rate(nf, 0.0);
  std::vector<double> remaining = capacity;
  // Active consumption count per resource.
  std::vector<double> load(nr, 0.0);
  std::vector<char> active(nf, 0);
  std::size_t num_active = 0;
  for (std::size_t k = 0; k < nf; ++k) {
    if (begin[k] == begin[k + 1]) continue;  // unconstrained: rate 0
    active[k] = 1;
    ++num_active;
    for (std::size_t h = begin[k]; h < begin[k + 1]; ++h)
      load[static_cast<std::size_t>(hops[h])] += 1.0;
  }
  // The resources some active flow still loads; every scan below walks
  // this list, which shrinks as the filling proceeds.
  std::vector<int> loaded(nr);
  std::iota(loaded.begin(), loaded.end(), 0);

  constexpr double kEps = 1e-12;
  std::vector<char> saturated(nr, 0);
  while (num_active > 0) {
    // Drop resources whose last crossing flow froze.
    std::erase_if(loaded, [&](int c) {
      return load[static_cast<std::size_t>(c)] <= kEps;
    });

    // Bottleneck increment: the smallest per-flow headroom across loaded
    // resources, further limited by the nearest active flow cap.
    double inc = std::numeric_limits<double>::infinity();
    for (int c : loaded) {
      const auto ci = static_cast<std::size_t>(c);
      inc = std::min(inc, remaining[ci] / load[ci]);
    }
    if (capped) {
      for (std::size_t k = 0; k < nf; ++k) {
        if (active[k]) inc = std::min(inc, caps[k] - rate[k]);
      }
    }
    SPINELESS_CHECK(std::isfinite(inc));
    inc = std::max(inc, 0.0);

    for (int c : loaded) {
      const auto ci = static_cast<std::size_t>(c);
      remaining[ci] -= inc * load[ci];
    }

    // Freeze every active flow crossing a saturated resource or pinned at
    // its cap. (Tolerance is relative to the original capacity scale.)
    for (int c : loaded) {
      const auto ci = static_cast<std::size_t>(c);
      if (remaining[ci] <= 1e-9 * std::max(1.0, capacity[ci]))
        saturated[ci] = 1;
    }
    bool any_frozen = false;
    for (std::size_t k = 0; k < nf; ++k) {
      if (!active[k]) continue;
      rate[k] += inc;
      bool freeze =
          capped && rate[k] >= caps[k] - 1e-9 * std::max(1.0, caps[k]);
      for (std::size_t h = begin[k]; !freeze && h < begin[k + 1]; ++h)
        freeze = saturated[static_cast<std::size_t>(hops[h])] != 0;
      if (freeze) {
        active[k] = 0;
        --num_active;
        any_frozen = true;
        for (std::size_t h = begin[k]; h < begin[k + 1]; ++h)
          load[static_cast<std::size_t>(hops[h])] -= 1.0;
      }
    }
    SPINELESS_CHECK_MSG(any_frozen || num_active == 0,
                        "water-filling made no progress");
    for (int c : loaded) saturated[static_cast<std::size_t>(c)] = 0;
  }
  return rate;
}

bool MaxMinProblem::is_max_min_fair(const std::vector<double>& rates,
                                    double tol) const {
  if (rates.size() != flows_.size()) return false;
  const std::size_t nr = capacity_.size();
  std::vector<double> used(nr, 0.0);
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    for (int r : flows_[f]) used[static_cast<std::size_t>(r)] += rates[f];
  }
  // Feasibility.
  for (std::size_t r = 0; r < nr; ++r) {
    if (used[r] > capacity_[r] + tol * std::max(1.0, capacity_[r]))
      return false;
  }
  // Max-min certificate: every flow crosses some saturated resource where
  // no other flow has a strictly larger rate.
  for (std::size_t f = 0; f < flows_.size(); ++f) {
    if (flows_[f].empty()) continue;
    bool certified = false;
    for (int r : flows_[f]) {
      const auto ri = static_cast<std::size_t>(r);
      if (used[ri] < capacity_[ri] - tol * std::max(1.0, capacity_[ri]))
        continue;  // not saturated
      bool maximal = true;
      for (std::size_t g = 0; g < flows_.size() && maximal; ++g) {
        if (g == f) continue;
        const bool crosses =
            std::find(flows_[g].begin(), flows_[g].end(), r) !=
            flows_[g].end();
        if (crosses && rates[g] > rates[f] + tol) maximal = false;
      }
      if (maximal) {
        certified = true;
        break;
      }
    }
    if (!certified) return false;
  }
  return true;
}

}  // namespace spineless::flowsim
