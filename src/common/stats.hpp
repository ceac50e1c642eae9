// Streaming summary statistics (one-pass moments). Percentiles come from
// a sample vector and obs::SortedQuantile (obs/quantiles.hpp).
#pragma once

#include <cstddef>

namespace microrec {

/// Accumulates count/mean/variance/min/max in one pass (Welford).
class RunningStats {
 public:
  void Add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace microrec
