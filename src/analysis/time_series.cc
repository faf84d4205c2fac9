#include "analysis/time_series.h"

#include <algorithm>
#include <cmath>

namespace graphtides {

void TimeSeries::Add(Timestamp time, double value) {
  if (!points_.empty() && time < points_.back().time) sorted_ = false;
  points_.push_back({time, value});
}

void TimeSeries::EnsureSorted() const {
  if (sorted_) return;
  std::stable_sort(
      points_.begin(), points_.end(),
      [](const TimePoint& a, const TimePoint& b) { return a.time < b.time; });
  sorted_ = true;
}

const std::vector<TimePoint>& TimeSeries::points() const {
  EnsureSorted();
  return points_;
}

Timestamp TimeSeries::start() const {
  EnsureSorted();
  return points_.empty() ? Timestamp() : points_.front().time;
}

Timestamp TimeSeries::end() const {
  EnsureSorted();
  return points_.empty() ? Timestamp() : points_.back().time;
}

std::vector<double> TimeSeries::ResampleMean(Timestamp from, Timestamp to,
                                             Duration bin, double fill) const {
  EnsureSorted();
  std::vector<double> out;
  if (to <= from || bin <= Duration::Zero()) return out;
  const size_t bins = static_cast<size_t>(
      ((to - from).nanos() + bin.nanos() - 1) / bin.nanos());
  std::vector<double> sums(bins, 0.0);
  std::vector<size_t> counts(bins, 0);
  for (const TimePoint& p : points_) {
    if (p.time < from || p.time >= to) continue;
    const size_t idx =
        static_cast<size_t>((p.time - from).nanos() / bin.nanos());
    sums[idx] += p.value;
    ++counts[idx];
  }
  out.resize(bins);
  for (size_t i = 0; i < bins; ++i) {
    out[i] = counts[i] > 0 ? sums[i] / static_cast<double>(counts[i]) : fill;
  }
  return out;
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += a[i];
    mean_b += b[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

double CrossCorrelationAtLag(const std::vector<double>& a,
                             const std::vector<double>& b, int lag) {
  // Positive lag: b lags behind a by `lag` bins -> compare a[i] to b[i+lag].
  std::vector<double> xa;
  std::vector<double> xb;
  const int na = static_cast<int>(a.size());
  const int nb = static_cast<int>(b.size());
  for (int i = 0; i < na; ++i) {
    const int j = i + lag;
    if (j < 0 || j >= nb) continue;
    xa.push_back(a[i]);
    xb.push_back(b[j]);
  }
  return PearsonCorrelation(xa, xb);
}

int BestCrossCorrelationLag(const std::vector<double>& a,
                            const std::vector<double>& b, int max_lag,
                            double* correlation) {
  int best_lag = 0;
  double best = 0.0;
  for (int lag = -max_lag; lag <= max_lag; ++lag) {
    const double c = CrossCorrelationAtLag(a, b, lag);
    if (std::abs(c) > std::abs(best)) {
      best = c;
      best_lag = lag;
    }
  }
  if (correlation != nullptr) *correlation = best;
  return best_lag;
}

}  // namespace graphtides
