// Order statistics and running summaries used for FCT / throughput reporting.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace spineless {

// Accumulates samples; percentiles computed on demand (nearest-rank with
// linear interpolation, matching numpy's default).
class Summary {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }
  double sum() const noexcept { return sum_; }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  // p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double p99() const { return percentile(99.0); }

  const std::vector<double>& samples() const noexcept { return samples_; }

  // "n=…, mean=…, p50=…, p99=…" one-liner for logs.
  std::string brief() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;
};

// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
// first/last bin. Used for path-length and queue-depth censuses.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0);
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  double bin_weight(std::size_t i) const { return counts_.at(i); }
  double total_weight() const noexcept { return total_; }

  std::string ascii(std::size_t width = 40) const;

 private:
  double lo_, hi_;
  std::vector<double> counts_;
  double total_ = 0;
};

}  // namespace spineless
