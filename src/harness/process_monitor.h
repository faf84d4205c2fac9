// Level-0 process monitoring (§4.3: "the analyst relies on agnostic
// profiling tools to periodically measure the graph system processes (e.g.,
// perf, pidstat ...). For each process, CPU load, memory usage ... have to
// be logged"). ProcessMonitor reads /proc/<pid>, computing CPU utilization
// between consecutive samples; its caller decides when to sample.
#ifndef GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_
#define GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_

#include <sys/types.h>

#include <cstdint>

#include "common/clock.h"
#include "common/result.h"

namespace graphtides {

/// \brief One observation of a process.
struct ProcessSample {
  Timestamp time;
  /// CPU utilization since the previous sample, 0..100 * n_cores.
  /// The first sample reports 0 (no baseline yet).
  double cpu_percent = 0.0;
  /// Resident set size in bytes.
  uint64_t rss_bytes = 0;
  /// Cumulative user+system CPU time in clock ticks (raw).
  uint64_t cpu_ticks = 0;
  /// Number of threads.
  uint64_t num_threads = 0;
};

/// \brief Samples /proc/<pid>/stat and /proc/<pid>/statm.
class ProcessMonitor {
 public:
  /// Monitors an arbitrary process (must be readable under /proc).
  explicit ProcessMonitor(pid_t pid);
  /// Monitors the calling process.
  static ProcessMonitor Self();

  pid_t pid() const { return pid_; }

  /// Takes one sample; IoError if the process vanished.
  Result<ProcessSample> Sample();

 private:
  pid_t pid_;
  MonotonicClock clock_;
  bool has_baseline_ = false;
  uint64_t last_ticks_ = 0;
  Timestamp last_time_;
  long ticks_per_second_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_
