#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace graphtides {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const size_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          static_cast<double>(total);
  count_ = total;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

double Percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, q);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double StudentTCritical(double level, size_t df) {
  if (df == 0) df = 1;
  // Two-sided critical values for common confidence levels. Rows: df.
  struct Row {
    size_t df;
    double t90, t95, t99;
  };
  static const Row kTable[] = {
      {1, 6.314, 12.706, 63.657}, {2, 2.920, 4.303, 9.925},
      {3, 2.353, 3.182, 5.841},   {4, 2.132, 2.776, 4.604},
      {5, 2.015, 2.571, 4.032},   {6, 1.943, 2.447, 3.707},
      {7, 1.895, 2.365, 3.499},   {8, 1.860, 2.306, 3.355},
      {9, 1.833, 2.262, 3.250},   {10, 1.812, 2.228, 3.169},
      {12, 1.782, 2.179, 3.055},  {15, 1.753, 2.131, 2.947},
      {20, 1.725, 2.086, 2.845},  {25, 1.708, 2.060, 2.787},
      {30, 1.697, 2.042, 2.750},  {40, 1.684, 2.021, 2.704},
      {60, 1.671, 2.000, 2.660},  {120, 1.658, 1.980, 2.617},
      {1000000, 1.645, 1.960, 2.576},
  };
  auto pick = [&](const Row& r) {
    if (level >= 0.985) return r.t99;
    if (level >= 0.925) return r.t95;
    return r.t90;
  };
  const Row* prev = &kTable[0];
  for (const Row& row : kTable) {
    if (df == row.df) return pick(row);
    if (df < row.df) {
      // Linear interpolation in 1/df, the conventional approach.
      const double x = 1.0 / static_cast<double>(df);
      const double x0 = 1.0 / static_cast<double>(prev->df);
      const double x1 = 1.0 / static_cast<double>(row.df);
      const double f = (x - x0) / (x1 - x0);
      return pick(*prev) * (1.0 - f) + pick(row) * f;
    }
    prev = &row;
  }
  return pick(kTable[std::size(kTable) - 1]);
}

ConfidenceInterval MeanConfidenceInterval(const std::vector<double>& values,
                                          double level) {
  ConfidenceInterval ci;
  ci.level = level;
  ci.n = values.size();
  if (values.empty()) return ci;
  RunningStats rs;
  for (double v : values) rs.Add(v);
  ci.mean = rs.mean();
  if (values.size() < 2) {
    ci.lower = ci.upper = ci.mean;
    return ci;
  }
  const double se = rs.stddev() / std::sqrt(static_cast<double>(values.size()));
  const double t = StudentTCritical(level, values.size() - 1);
  ci.lower = ci.mean - t * se;
  ci.upper = ci.mean + t * se;
  return ci;
}

}  // namespace graphtides
