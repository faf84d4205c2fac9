// The Chronograph experiment of §5.3.2 (Fig. 3d, Table 4), reproduced
// against ChronoLite: a social-network stream (with a mid-stream pause and
// a doubled-rate segment) drives the engine while Level-2 loggers sample
// replay rate, per-worker internal ops, CPU, and queue lengths; the online
// influence-rank estimates of the most influential users are recorded and
// their relative errors computed retrospectively against batch PageRank on
// the reconstructed graph.
#ifndef GRAPHTIDES_SUT_CHRONOLITE_EXPERIMENT_H_
#define GRAPHTIDES_SUT_CHRONOLITE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "harness/log_collector.h"
#include "sim/virtual_replayer.h"
#include "stream/event.h"
#include "sut/chronolite/chronolite.h"

namespace graphtides {

struct ChronographExperimentConfig {
  /// Base streaming rate; Table 4: 2000 events/s. Control events inside
  /// the stream provide the pause and the doubled-rate segment.
  double base_rate_eps = 2000.0;
  Duration sample_interval = Duration::FromSeconds(1.0);
  /// Relative rank error is evaluated at this interval (batch PageRank per
  /// evaluation point; coarser than the metric sampling).
  Duration error_interval = Duration::FromSeconds(5.0);
  /// Track the k users most influential in the final exact ranking.
  size_t track_top_k = 10;
  /// Hard stop in virtual time.
  Duration max_duration = Duration::FromSeconds(600.0);
  /// Worker threads for the retrospective exact-reference recomputes
  /// (0 = auto, 1 = sequential). Results are thread-count invariant.
  size_t compute_threads = 1;
  ChronoLiteOptions engine;
};

struct RankErrorSample {
  Timestamp time;
  /// Median relative error over the tracked users that exist (with a
  /// positive exact rank) by then; points with none are not recorded.
  double median_relative_error = 0.0;
};

struct ChronographExperimentResult {
  /// Merged result log; sources: "replayer", "worker-<i>"; metrics:
  /// "replay_rate", "ops_rate", "cpu", "queue_length", "rank_error".
  ResultLog log;

  Duration virtual_duration;
  Timestamp stream_finished_at;
  Timestamp drained_at;
  uint64_t events_ingested = 0;
  uint64_t updates_applied = 0;
  uint64_t residual_messages = 0;
  uint64_t residual_deltas = 0;

  /// Per-sample series (aligned, one entry per sample interval).
  std::vector<double> replay_rate;                      // events/s
  std::vector<std::vector<double>> worker_ops_rate;     // ops/s per worker
  std::vector<std::vector<double>> worker_queue_length; // per worker
  std::vector<std::vector<double>> worker_cpu;          // 0..1 per worker
  std::vector<RankErrorSample> rank_error;

  /// Watermark latencies (§4.5) for every marker that became visible, in
  /// stream order.
  std::vector<MarkerLatencySample> marker_latency;

  /// Tracked users (most influential by final exact rank).
  std::vector<VertexId> tracked_users;
};

Result<ChronographExperimentResult> RunChronographExperiment(
    const std::vector<Event>& stream,
    const ChronographExperimentConfig& config);

}  // namespace graphtides

#endif  // GRAPHTIDES_SUT_CHRONOLITE_EXPERIMENT_H_
