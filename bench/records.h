// Run records for the bench cells: each cell of fig3a_replayer_throughput,
// gen_throughput and compute_kernels is written as one gt-e2e-v1 RunRecord
// (bench/e2e's record format), so that repeated runs of two builds can be
// compared with `e2e_pipeline --compare`; bench/ab.py drives that A/B.
#ifndef GRAPHTIDES_BENCH_RECORDS_H_
#define GRAPHTIDES_BENCH_RECORDS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_lib.h"

namespace graphtides::bench {

/// \brief Writes DIR/WORKLOAD.json ('/' in the workload name becomes '.'):
/// one record with this process's host fingerprint and one metric,
/// "throughput" in 1/s, the name and unit BENCHMARK.json bounds. The
/// record carries no checks: the bench's own checks set its exit code.
/// Does nothing when `dir` is empty; exits 1 when the file cannot be
/// written.
inline void WriteThroughputRecord(const std::string& dir,
                                  const std::string& workload, uint64_t seed,
                                  double per_second) {
  if (dir.empty()) return;
  e2e::RunRecord record;
  record.workload = workload;
  record.seed = seed;
  record.host = e2e::HostFingerprint::Current();
  record.correct = true;
  record.metrics["throughput"] = {per_second, "1/s"};
  std::string name = workload;
  std::replace(name.begin(), name.end(), '/', '.');
  std::error_code ignored;
  std::filesystem::create_directories(dir, ignored);
  const std::string path =
      (std::filesystem::path(dir) / (name + ".json")).string();
  std::ofstream out(path, std::ios::trunc);
  out << record.ToJson() << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace graphtides::bench

#endif  // GRAPHTIDES_BENCH_RECORDS_H_
