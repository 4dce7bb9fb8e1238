#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace spineless {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
  sorted_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::mean() const {
  SPINELESS_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::min() const {
  ensure_sorted();
  SPINELESS_CHECK(!samples_.empty());
  return samples_.front();
}

double Summary::max() const {
  ensure_sorted();
  SPINELESS_CHECK(!samples_.empty());
  return samples_.back();
}

double Summary::percentile(double p) const {
  SPINELESS_CHECK(!samples_.empty());
  SPINELESS_CHECK(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace spineless
