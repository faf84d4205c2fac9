// Time-series containers and statistics for result-log analysis (§4.5:
// "appropriate visualizations (e.g., time series plots) and statistical
// time series analyses (e.g., cross-correlations)").
#ifndef GRAPHTIDES_ANALYSIS_TIME_SERIES_H_
#define GRAPHTIDES_ANALYSIS_TIME_SERIES_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/clock.h"

namespace graphtides {

/// \brief One timestamped observation.
struct TimePoint {
  Timestamp time;
  double value = 0.0;
};

/// \brief Ordered sequence of timestamped samples of one metric.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends a sample; samples may arrive unordered and are sorted lazily.
  void Add(Timestamp time, double value);

  size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Samples in time order.
  const std::vector<TimePoint>& points() const;

  Timestamp start() const;
  Timestamp end() const;

  /// \brief Mean of samples per fixed-width bin over [from, to).
  /// Bins without samples get `fill`.
  std::vector<double> ResampleMean(Timestamp from, Timestamp to, Duration bin,
                                   double fill = 0.0) const;

 private:
  void EnsureSorted() const;

  std::string name_;
  mutable std::vector<TimePoint> points_;
  mutable bool sorted_ = true;
};

/// \brief Pearson correlation of two equal-length vectors; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/// \brief Cross-correlation of two binned series at integer lag `k`
/// (b shifted k bins later than a). |k| must be < min(size).
double CrossCorrelationAtLag(const std::vector<double>& a,
                             const std::vector<double>& b, int lag);

/// \brief Lag in [-max_lag, max_lag] with the strongest absolute
/// cross-correlation; also outputs that correlation.
int BestCrossCorrelationLag(const std::vector<double>& a,
                            const std::vector<double>& b, int max_lag,
                            double* correlation);

}  // namespace graphtides

#endif  // GRAPHTIDES_ANALYSIS_TIME_SERIES_H_
