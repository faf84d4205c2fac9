// Shared statistics and record format for the end-to-end benchmark
// (bench/e2e): run-set quartiles, CI95 over repeated runs, the JSON run
// record, and the host fingerprint that keeps records from different
// machines or builds from being compared. Quartiles and CI95 are those of
// common/stats (Percentile, MeanConfidenceInterval).
#ifndef GRAPHTIDES_BENCH_E2E_BENCH_LIB_H_
#define GRAPHTIDES_BENCH_E2E_BENCH_LIB_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/stats.h"

namespace graphtides::e2e {

/// \brief First quartile, median and third quartile of a sample, by
/// Percentile (linear interpolation between order statistics); all 0 for
/// an empty sample.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  static Quartiles Of(const std::vector<double>& values);
  /// (q3 - q1) / median; 0 when the median is 0.
  double RelativeSpread() const;
};

/// CI95 of the mean via MeanConfidenceInterval / StudentTCritical.
ConfidenceInterval Ci95(const std::vector<double>& values);

/// \brief What a record was measured on. Records are comparable only when
/// every field matches.
struct HostFingerprint {
  uint32_t cores = 0;
  std::string build_type;
  std::string compiler;
  /// Whether sampled replay telemetry was compiled in (GT_TELEMETRY).
  bool telemetry = true;

  /// The fingerprint of this process: hardware threads, and the build type
  /// and compiler this binary was built with.
  static HostFingerprint Current();

  bool operator==(const HostFingerprint& other) const = default;
  std::string ToString() const;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;

  bool operator==(const MetricValue& other) const = default;
};

using MetricMap = std::map<std::string, MetricValue>;

/// \brief Everything one benchmark run reports.
struct RunRecord {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool traced = false;
  HostFingerprint host;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> failures;
  MetricMap metrics;

  /// The full record as one JSON object (schema "gt-e2e-v1").
  std::string ToJson() const;
  static Result<RunRecord> FromJson(std::string_view text);

  /// The short result line: exactly correct / attempted / failed /
  /// metrics, the last line the benchmark prints.
  std::string ResultLine() const;

  bool operator==(const RunRecord& other) const = default;
};

/// Appends `s` as a JSON string literal (quotes, backslashes and control
/// characters escaped).
void JsonAppendString(std::string* out, std::string_view s);

/// \brief How one end-to-end metric is judged.
struct MetricSpec {
  std::string name;
  bool lower_is_better = true;
  /// Share of the base median by which the candidate may get worse.
  double bound = 0.1;
};

/// \brief One metric of two run sets side by side.
struct MetricComparison {
  std::string metric;
  Quartiles base;
  Quartiles candidate;
  ConfidenceInterval base_ci;
  ConfidenceInterval candidate_ci;
  /// Candidate median relative to the base median, signed so that a
  /// positive value is a change for the worse.
  double worse_by = 0.0;
  /// The CI95s separate and worse_by exceeds the metric's bound.
  bool regression = false;
};

/// \brief Compares two sets of records of one workload metric by metric.
///
/// PreconditionFailed when the sets are empty, mix workloads, or any two
/// records carry different host fingerprints: numbers from different
/// machines or builds are never compared. Metrics missing from any
/// record are skipped.
Result<std::vector<MetricComparison>> CompareRunSets(
    const std::vector<RunRecord>& base, const std::vector<RunRecord>& candidate,
    const std::vector<MetricSpec>& specs);

}  // namespace graphtides::e2e

#endif  // GRAPHTIDES_BENCH_E2E_BENCH_LIB_H_
