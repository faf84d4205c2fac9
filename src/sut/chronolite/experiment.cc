#include "sut/chronolite/experiment.h"

#include <memory>
#include <optional>

#include "algorithms/pagerank.h"
#include "harness/metrics_logger.h"
#include "sim/simulator.h"

namespace graphtides {

Result<ChronographExperimentResult> RunChronographExperiment(
    const std::vector<Event>& stream,
    const ChronographExperimentConfig& config) {
  ChronographExperimentResult result;
  // The paper dumps "intermediate processing results for the most
  // influential users": those of the final exact ranking.
  result.tracked_users =
      TopRankedVertices(stream, config.track_top_k, config.compute_threads);

  Simulator sim;
  ChronoLiteOptions engine_options = config.engine;
  engine_options.utilization_bin = config.sample_interval;
  ChronoLite engine(&sim, engine_options);

  VirtualReplayer replayer(&sim, config.base_rate_eps);

  MetricsLogger replayer_log("replayer", sim.clock());
  std::vector<std::unique_ptr<MetricsLogger>> worker_logs;
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    worker_logs.push_back(std::make_unique<MetricsLogger>(
        "worker-" + std::to_string(i + 1), sim.clock()));
  }

  // Watermark visibility (§4.5) is checked after every processed message.
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    engine.hooks().Attach(
        "message_processed." + std::to_string(i),
        [&](double) { replayer.ObserveApplied(engine.updates_applied()); });
  }

  replayer.Start(
      stream, [&](const Event& event, size_t) { engine.Ingest(event); },
      [&](const std::string& label) {
        replayer_log.LogText("marker_sent", 1.0, label);
      });

  // Tracked-user estimates, one per error evaluation point, for
  // retrospective error analysis.
  std::vector<RankEstimate> estimates;

  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + config.max_duration;
  Timestamp next_eval = t0 + config.error_interval;
  uint64_t last_replayed = 0;
  std::vector<uint64_t> last_ops(engine.num_workers(), 0);

  auto sample = [&] {
    const double interval_s = config.sample_interval.seconds();
    // Replay rate.
    const uint64_t replayed = replayer.events_delivered();
    const double replay_rate =
        static_cast<double>(replayed - last_replayed) / interval_s;
    last_replayed = replayed;
    replayer_log.Log("replay_rate", replay_rate);
    result.replay_rate.push_back(replay_rate);

    // Per-worker internals (Level 2).
    if (result.worker_ops_rate.empty()) {
      result.worker_ops_rate.resize(engine.num_workers());
      result.worker_queue_length.resize(engine.num_workers());
    }
    for (size_t i = 0; i < engine.num_workers(); ++i) {
      const uint64_t ops = engine.WorkerOpsProcessed(i);
      const double ops_rate =
          static_cast<double>(ops - last_ops[i]) / interval_s;
      last_ops[i] = ops;
      const double queue_length =
          static_cast<double>(engine.WorkerQueueLength(i));
      worker_logs[i]->Log("ops_rate", ops_rate);
      worker_logs[i]->Log("queue_length", queue_length);
      result.worker_ops_rate[i].push_back(ops_rate);
      result.worker_queue_length[i].push_back(queue_length);
    }

    // Rank-estimate dump at each error evaluation point.
    if (sim.Now() >= next_eval) {
      next_eval = sim.Now() + config.error_interval;
      RankEstimate& estimate = estimates.emplace_back();
      estimate.time = sim.Now();
      estimate.ranks.reserve(result.tracked_users.size());
      for (VertexId v : result.tracked_users) {
        estimate.ranks.push_back(engine.RankOf(v));
      }
    }

    return replayer.finished() && engine.Idle() && sim.pending() == 0;
  };
  result.drained_at = sim.RunSampled(config.sample_interval, deadline, sample)
                          .value_or(deadline);

  result.virtual_duration = sim.Now() - t0;
  result.stream_finished_at = replayer.finished_at();
  result.events_ingested = engine.events_ingested();
  result.updates_applied = engine.updates_applied();
  result.residual_messages = engine.residual_messages();
  result.residual_deltas = engine.residual_deltas();
  result.marker_latency = replayer.visible_markers();

  // CPU series.
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    result.worker_cpu.push_back(
        engine.WorkerProcess(i).UtilizationSeries(sim.Now()));
    const auto& series = result.worker_cpu.back();
    for (size_t b = 0; b < series.size(); ++b) {
      worker_logs[i]->LogAt(
          t0 + config.sample_interval * static_cast<int64_t>(b), "cpu",
          series[b] * 100.0);
    }
  }

  // Retrospective rank-error analysis against batch PageRank on the graph
  // reconstructed at each evaluation point (§4.3 Computation Metrics).
  MetricsLogger error_log("analysis", sim.clock());
  const std::vector<std::optional<double>> errors = RetrospectiveRankErrors(
      stream, replayer.delivery_times(), estimates, result.tracked_users,
      config.compute_threads);
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (!errors[i]) continue;
    error_log.LogAt(estimates[i].time, "rank_error", *errors[i]);
    result.rank_error.push_back({estimates[i].time, *errors[i]});
  }

  LogCollector collector;
  collector.AddLogger(&replayer_log);
  for (const auto& log : worker_logs) collector.AddLogger(log.get());
  collector.AddLogger(&error_log);
  result.log = collector.Collect();
  return result;
}

}  // namespace graphtides
