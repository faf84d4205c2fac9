// The five workloads of the end-to-end benchmark. Each one builds its
// inputs from a seed, drives the program only through public calls, checks
// the outputs, and reports the end-to-end metrics; a traced run also
// reports the per-layer metrics. README.md says why each workload exists
// and which layer metric should move which end-to-end metric.
#ifndef GRAPHTIDES_BENCH_E2E_WORKLOADS_H_
#define GRAPHTIDES_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "common/result.h"
#include "trace.h"

namespace graphtides::e2e {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Metrics every untraced run reports, on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Metrics every traced run reports, on every workload; a layer the
/// workload bypasses reads 0.
const std::vector<MetricDef>& LayerMetrics();
const std::vector<std::string>& WorkloadNames();

struct RunConfig {
  std::string workload;
  uint64_t seed = 7;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Inputs at ~1% size and the fewest passes, for the smoke test.
  bool smoke = false;
  /// Build the inputs once instead of several times (setup_s is the
  /// median of the builds).
  bool single_setup = false;
  /// Directory for the generated stream files.
  std::string work_dir;
  /// Set in a traced run; nullptr otherwise.
  Tracer* tracer = nullptr;
};

struct WorkloadOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed check.
  std::vector<std::string> failures;
  MetricMap e2e;
  /// Filled only in a traced run.
  MetricMap layer;
};

/// Runs one workload. An error status means the run could not be set up
/// (unknown workload, unwritable work directory); failed checks are
/// reported in the outcome instead.
Result<WorkloadOutcome> RunWorkload(const RunConfig& config);

}  // namespace graphtides::e2e

#endif  // GRAPHTIDES_BENCH_E2E_WORKLOADS_H_
