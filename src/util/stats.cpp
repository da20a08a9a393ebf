#include "util/stats.h"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace bd {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStat::stddev() const {
  if (n_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(n_ - 1));
}

double mean_of(const std::vector<double>& v) {
  RunningStat s;
  for (double x : v) s.add(x);
  return s.mean();
}

std::string mean_std_string(const std::vector<double>& v, int precision) {
  RunningStat s;
  for (double x : v) s.add(x);
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << s.mean();
  if (s.count() > 1) {
    out << "±" << std::fixed << std::setprecision(precision) << s.stddev();
  }
  return out.str();
}

}  // namespace bd
