// Small statistics helpers used by the evaluation harness to aggregate
// per-trial metrics into the mean +/- std rows the paper reports.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bd {

/// Welford online mean/variance accumulator.
class RunningStat {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const;
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean_of(const std::vector<double>& v);

/// Formats "12.34±5.67" in the paper's table style (percent-scale values).
std::string mean_std_string(const std::vector<double>& v, int precision = 2);

}  // namespace bd
