#include "harness/telemetry/snapshotter.h"

namespace graphtides {

TelemetrySnapshotter::TelemetrySnapshotter(RunTelemetry* source,
                                           SnapshotterOptions options)
    : source_(source), options_(options) {
  if (options_.period.nanos() <= 0) {
    options_.period = Duration::FromMillis(500);
  }
  // Valid even when Stop() runs without a Start() (aborted setup paths).
  start_time_ = clock_.Now();
}

TelemetrySnapshotter::~TelemetrySnapshotter() { Stop(); }

void TelemetrySnapshotter::Start() {
  if (started_ || stopped_) return;
  started_ = true;
  start_time_ = clock_.Now();
  poller_.Start(options_.period, [this] {
    Emit();
    return false;
  });
}

void TelemetrySnapshotter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  poller_.Stop();
  // Final record: whatever the periodic ticks missed at the tail.
  Emit();
}

void TelemetrySnapshotter::Emit() {
  TelemetrySnapshot snap = source_->Snapshot();
  snap.seq = seq_++;
  snap.elapsed_s = (clock_.Now() - start_time_).seconds();
  const double dt = snap.elapsed_s - prev_elapsed_s_;
  const uint64_t de = snap.events - prev_events_;
  snap.events_per_sec = dt > 1e-9 ? static_cast<double>(de) / dt : 0.0;
  prev_events_ = snap.events;
  prev_elapsed_s_ = snap.elapsed_s;
  if (options_.out != nullptr) {
    const std::string line = snap.ToJsonLine();
    std::fwrite(line.data(), 1, line.size(), options_.out);
    std::fputc('\n', options_.out);
    std::fflush(options_.out);
  }
  if (options_.on_snapshot) options_.on_snapshot(snap);
}

}  // namespace graphtides
