// Telemetry snapshots: the JSONL record a live run emits periodically
// (schema "gt-telemetry-v1", one JSON object per line). A snapshot carries
// cumulative progress, per-stage replay-path latency percentiles, marker
// correlation state, shard balance, and delivery-fault counters — enough
// to watch a run converge (or wedge) without waiting for the result log.
#ifndef GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOT_H_
#define GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "harness/telemetry/latency_histogram.h"

namespace graphtides {

/// \brief Stages of the replay hot path traced by the sampled spans
/// (read -> throttle -> serialize -> deliver -> ack).
enum class ReplayStage : uint8_t {
  /// Decoding one entry: on the decode thread for file input, on the
  /// reader thread for in-memory input.
  kRead = 0,
  /// RateController deadline wait on the emitter/lane thread.
  kThrottle = 1,
  /// Canonical CSV serialization (serialized-transport lanes only).
  kSerialize = 2,
  /// Sink delivery call (write/send, including decorator retries).
  kDeliver = 3,
  /// Post-delivery bookkeeping: counters, lag record, checkpoint check.
  kAck = 4,
};
inline constexpr size_t kReplayStageCount = 5;

std::string_view ReplayStageName(ReplayStage stage);

/// \brief Percentile digest of one histogram, as serialized in snapshots.
struct StageSummary {
  uint64_t count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;

  static StageSummary FromHistogram(const LatencyHistogram& h);
};

/// \brief Delivery-fault counters (mirrors replayer SinkTelemetry without
/// depending on the replayer library).
struct DeliveryCounters {
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t drops_after_retry = 0;
  uint64_t giveups = 0;
  uint64_t injected_failures = 0;
  uint64_t injected_disconnects = 0;
  double backoff_s = 0.0;
  double stall_s = 0.0;

  bool any() const {
    return retries || reconnects || drops_after_retry || giveups ||
           injected_failures || injected_disconnects || backoff_s > 0.0 ||
           stall_s > 0.0;
  }
};

/// \brief Crash/recovery counters for supervised runs: how many process
/// faults the run absorbed and what recovering from them cost. All
/// cumulative, so a telemetry stream's recovery block is monotonically
/// non-decreasing (gt_validate checks this).
struct RecoveryCounters {
  /// Process crashes (SIGKILL / fault-plan kills) absorbed so far.
  uint64_t crashes = 0;
  /// Resumes from a checkpoint after a crash or hang.
  uint64_t resumes = 0;
  /// Checkpoint generations skipped as torn/corrupt during resume loads.
  uint64_t checkpoint_fallbacks = 0;
  /// Injected file-write faults (ENOSPC / short writes) observed.
  uint64_t write_faults = 0;
  /// Shard ranges reassigned to a surviving/respawned worker after a
  /// worker death or hang (distributed replay).
  uint64_t reassignments = 0;
  /// Total downtime across recoveries, seconds (MTTR = downtime_s /
  /// recoveries when any happened).
  double downtime_s = 0.0;
  /// Derived mean time to recovery, seconds — downtime_s over resumes +
  /// reassignments. NOT cumulative (a fast recovery lowers it), so
  /// monotonicity checks must skip it.
  double mttr_s = 0.0;

  bool any() const {
    return crashes || resumes || checkpoint_fallbacks || write_faults ||
           reassignments || downtime_s > 0.0;
  }
};

/// \brief Marker-correlation state at snapshot time.
struct MarkerSummary {
  uint64_t sent = 0;
  uint64_t matched = 0;
  uint64_t unmatched = 0;
  uint64_t pending = 0;
  uint64_t orphans = 0;
  StageSummary latency;
};

/// \brief One JSONL telemetry record.
struct TelemetrySnapshot {
  /// 0-based emission index within the run.
  uint64_t seq = 0;
  /// Seconds since telemetry started.
  double elapsed_s = 0.0;
  /// Cumulative graph events delivered.
  uint64_t events = 0;
  /// Interval rate since the previous snapshot (cumulative rate for the
  /// first).
  double events_per_sec = 0.0;
  /// Cumulative events per shard lane (size = shard count).
  std::vector<uint64_t> shard_events;
  /// (max - min) / mean over shard_events; 0 for a single lane.
  double shard_imbalance = 0.0;
  /// Cumulative per-stage span digests; stages with count 0 are omitted
  /// from the JSON.
  std::array<StageSummary, kReplayStageCount> stages{};
  MarkerSummary markers;
  DeliveryCounters sink;
  /// Crash/recovery counters; the `recovery` JSON block is emitted only
  /// when any counter is non-zero.
  RecoveryCounters recovery;

  /// Computes shard_imbalance from shard_events.
  void ComputeImbalance();

  /// One-line JSON (no trailing newline), schema "gt-telemetry-v1".
  std::string ToJsonLine() const;
  /// Parses and validates one JSONL line; ParseError with a reason for
  /// malformed or schema-violating input.
  static Result<TelemetrySnapshot> FromJsonLine(std::string_view line);
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_TELEMETRY_SNAPSHOT_H_
