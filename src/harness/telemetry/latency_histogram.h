// Log-bucketed latency histogram (HDR-histogram bucket scheme): a fixed
// ~2.4 KB footprint regardless of sample count, constant-time recording,
// p50/p90/p99/p999 queries, and a lossless Merge() — two histograms over
// disjoint sample sets merge into exactly the histogram of the union, so
// shard lanes, repetitions, and campaign runs aggregate without resampling
// error. This replaces the unbounded `vector<double>` percentile sites
// (§4.5: online latency observability needs constant memory per logger).
#ifndef GRAPHTIDES_HARNESS_TELEMETRY_LATENCY_HISTOGRAM_H_
#define GRAPHTIDES_HARNESS_TELEMETRY_LATENCY_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

namespace graphtides {

/// \brief Fixed-size histogram of nanosecond latencies.
///
/// Bucket scheme: values 0..15 ns get exact unit buckets; every further
/// power-of-two octave [2^k, 2^(k+1)) is split into 8 log-linear
/// sub-buckets, giving a bounded relative bucket width of 12.5% (quantile
/// midpoints are within ~6.25% of the true value) across the whole range.
/// Values at or above 2^40 ns (~18.3 min) clamp into the top bucket;
/// negative values clamp to zero. min/max/count/sum are tracked exactly.
///
/// Quantiles are a pure function of the bucket counts, so any partition of
/// a sample set yields identical quantiles after Merge() — the property
/// the shard-determinism tests pin.
class LatencyHistogram {
 public:
  /// Unit buckets for the first octave span [0, 16).
  static constexpr size_t kUnitBuckets = 16;
  /// Log-linear sub-buckets per octave past the unit range.
  static constexpr size_t kSubBucketsPerOctave = 8;
  /// Largest distinguishable exponent: values >= 2^40 ns clamp.
  static constexpr int kMaxExponent = 40;
  static constexpr size_t kBucketCount =
      kUnitBuckets + (kMaxExponent - 4) * kSubBucketsPerOctave;

  void RecordNanos(int64_t nanos);
  void Record(Duration d) { RecordNanos(d.nanos()); }

  /// Folds `other` into this histogram (field-wise; lossless).
  void Merge(const LatencyHistogram& other);
  void Reset();

  /// \brief The histogram of samples recorded since `earlier` was
  /// snapshotted from the same cumulative histogram: per-bucket count
  /// subtraction, the windowed-percentile primitive the capacity probe
  /// builds on (interval p99 = DeltaSince(previous snapshot).p99).
  ///
  /// `earlier` must be a prefix of this histogram (no bucket may shrink);
  /// InvalidArgument otherwise. The interval's exact min/max/sum are not
  /// recoverable from two cumulative states, so the delta approximates
  /// them from its extreme non-empty buckets (min/max within one bucket
  /// width, i.e. <= 12.5% relative error) and by sum subtraction —
  /// quantiles, the windowed signal, stay bucket-exact.
  Result<LatencyHistogram> DeltaSince(const LatencyHistogram& earlier) const;

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Exact extremes and mean of the recorded (clamped) values; 0 when
  /// empty.
  int64_t min_nanos() const { return count_ ? min_ : 0; }
  int64_t max_nanos() const { return count_ ? max_ : 0; }
  double mean_nanos() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// \brief Value at quantile q in [0, 1]: the midpoint of the bucket
  /// holding the ceil(q*count)-th sample, clamped into [min, max] so the
  /// tails stay exact. Returns 0 when empty.
  int64_t ValueAtQuantileNanos(double q) const;
  double ValueAtQuantileMicros(double q) const {
    return static_cast<double>(ValueAtQuantileNanos(q)) / 1e3;
  }
  double ValueAtQuantileSeconds(double q) const {
    return static_cast<double>(ValueAtQuantileNanos(q)) / 1e9;
  }

  /// Visits (bucket index, count) for every non-empty bucket, in value
  /// order — sparse serialization and tests.
  void ForEachNonZero(
      const std::function<void(size_t, uint64_t)>& fn) const;

  /// Exact accumulated sum of recorded (clamped) values, nanoseconds —
  /// with ForEachNonZero/min/max/count this is the full internal state,
  /// so a serialized histogram merges losslessly after FromExactState.
  double sum_nanos() const { return sum_; }

  /// \brief Rebuilds a histogram from exact serialized state (inverse of
  /// ForEachNonZero plus the exact-stat accessors). InvalidArgument when
  /// a bucket index is out of range, bucket counts do not sum to `count`,
  /// or the extremes are inconsistent.
  static Result<LatencyHistogram> FromExactState(
      uint64_t count, int64_t min_nanos, int64_t max_nanos, double sum_nanos,
      const std::vector<std::pair<size_t, uint64_t>>& buckets);

  /// Inclusive lower / exclusive upper value bound of bucket `i`.
  static int64_t BucketLowNanos(size_t i);
  static int64_t BucketHighNanos(size_t i);
  /// Bucket index a value lands in (after clamping).
  static size_t BucketIndex(int64_t nanos);

  bool operator==(const LatencyHistogram& other) const {
    return count_ == other.count_ && min_ == other.min_ &&
           max_ == other.max_ && counts_ == other.counts_;
  }

 private:
  std::array<uint64_t, kBucketCount> counts_{};
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_TELEMETRY_LATENCY_HISTOGRAM_H_
