// Order statistics and running summaries used for FCT / throughput reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace spineless {

// Accumulates samples; percentiles computed on demand (nearest-rank with
// linear interpolation, matching numpy's default).
class Summary {
 public:
  void add(double x);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double sum() const noexcept { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  // p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }

  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;
};

}  // namespace spineless
