// Level-0 process monitoring (§4.3: "the analyst relies on agnostic
// profiling tools to periodically measure the graph system processes (e.g.,
// perf, pidstat ...). For each process, CPU load, memory usage ... have to
// be logged"). ProcessMonitor reads /proc/<pid>, computing CPU utilization
// between consecutive samples; PeriodicProcessLogger drives it on a
// background thread into a MetricsLogger — the C++ equivalent of the
// paper's Python/Node.js runtime metrics logger scripts.
#ifndef GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_
#define GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/clock.h"
#include "common/result.h"
#include "harness/metrics_logger.h"

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

/// \brief Background sampler: logs "cpu" (percent) and "rss" (bytes) for a
/// process into a MetricsLogger at a fixed interval until stopped.
class PeriodicProcessLogger {
 public:
  PeriodicProcessLogger(pid_t pid, MetricsLogger* logger, Duration interval);
  ~PeriodicProcessLogger();

  PeriodicProcessLogger(const PeriodicProcessLogger&) = delete;
  PeriodicProcessLogger& operator=(const PeriodicProcessLogger&) = delete;

  void Stop();

 private:
  void Run(Duration interval);

  ProcessMonitor monitor_;
  MetricsLogger* logger_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_PROCESS_MONITOR_H_
