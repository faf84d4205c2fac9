// Descriptive statistics used by the metrics pipeline and the evaluation
// methodology (§4.5): running moments, percentiles, confidence intervals.
#ifndef GRAPHTIDES_COMMON_STATS_H_
#define GRAPHTIDES_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace graphtides {

/// \brief Streaming mean/variance/min/max via Welford's algorithm.
class RunningStats {
 public:
  void Add(double x);
  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);
  void Reset();

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// \brief Returns the q-quantile (0 <= q <= 1) of `values` by linear
/// interpolation between order statistics. Sorts a copy; returns 0 on empty
/// input.
double Percentile(std::vector<double> values, double q);

/// \brief Like Percentile but assumes `sorted` is already ascending.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// \brief Median convenience wrapper.
double Median(std::vector<double> values);

/// \brief A two-sided confidence interval around a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double level = 0.95;
  size_t n = 0;

  /// True if [lower, upper] does not intersect `other`'s interval — the
  /// paper's criterion for a significant difference between two systems.
  bool DisjointFrom(const ConfidenceInterval& other) const {
    return upper < other.lower || other.upper < lower;
  }
};

/// \brief Confidence interval for the mean of `values` at the given level
/// (0.90, 0.95, or 0.99), using Student's t critical values.
///
/// The methodology (§4.5) calls for n >= 30 runs; this function still
/// produces correct intervals for smaller n via the t table.
ConfidenceInterval MeanConfidenceInterval(const std::vector<double>& values,
                                          double level = 0.95);

/// \brief Two-sided Student's t critical value for the given confidence
/// level and degrees of freedom (interpolated from a standard table;
/// converges to the normal z value for large df).
double StudentTCritical(double level, size_t df);

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_STATS_H_
