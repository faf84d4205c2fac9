// TelemetrySnapshotter: a PollThread that periodically pulls a snapshot
// from RunTelemetry, stamps seq/elapsed/interval-rate, and emits
// it as one JSONL line (sidecar file, stderr, or a test callback). Stop()
// always emits a final snapshot so short runs still produce a record.
#ifndef GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOTTER_H_
#define GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOTTER_H_

#include <cstdio>
#include <functional>

#include "common/clock.h"
#include "harness/poll_thread.h"
#include "harness/telemetry/run_telemetry.h"

namespace graphtides {

struct SnapshotterOptions {
  Duration period = Duration::FromMillis(500);
  /// Destination stream for JSONL lines; not owned, may be nullptr when
  /// on_snapshot is the only consumer. fflush'd after every line so a
  /// `tail -f` watcher sees records as they happen.
  std::FILE* out = nullptr;
  /// Optional in-process consumer, called after the line is written.
  std::function<void(const TelemetrySnapshot&)> on_snapshot;
};

class TelemetrySnapshotter {
 public:
  TelemetrySnapshotter(RunTelemetry* source, SnapshotterOptions options);
  ~TelemetrySnapshotter();

  TelemetrySnapshotter(const TelemetrySnapshotter&) = delete;
  TelemetrySnapshotter& operator=(const TelemetrySnapshotter&) = delete;

  /// Starts the periodic snapshots. A no-op after Stop().
  void Start();
  /// Joins the poll thread and emits the final snapshot. Idempotent.
  /// Start and Stop are called from the thread that owns the snapshotter.
  void Stop();

  uint64_t snapshots_emitted() const { return seq_; }

 private:
  void Emit();

  RunTelemetry* source_;
  SnapshotterOptions options_;
  bool started_ = false;
  bool stopped_ = false;

  MonotonicClock clock_;
  Timestamp start_time_;
  uint64_t seq_ = 0;
  // Previous emission, for interval event rates.
  uint64_t prev_events_ = 0;
  double prev_elapsed_s_ = 0.0;

  // Last, after the state its poll reads.
  PollThread poller_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOTTER_H_
