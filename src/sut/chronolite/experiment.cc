#include "sut/chronolite/experiment.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "algorithms/pagerank.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/metrics_logger.h"
#include "sim/simulator.h"
#include "sim/virtual_replayer.h"

namespace graphtides {

namespace {

/// Exact final ranking determines which users to track (the paper dumps
/// "intermediate processing results for the most influential users").
std::vector<VertexId> PickTrackedUsers(const std::vector<Event>& stream,
                                       size_t k, size_t threads) {
  Graph graph;
  for (const Event& e : stream) {
    (void)graph.Apply(e);  // faults would be rejected here as in the SUT
  }
  const CsrGraph csr = CsrGraph::FromGraph(graph, threads);
  const PageRankResult pr = PageRank(csr, {.threads = threads});
  std::vector<VertexId> tracked;
  for (CsrGraph::Index idx : TopKByRank(pr.ranks, k)) {
    tracked.push_back(csr.IdOf(idx));
  }
  return tracked;
}

}  // namespace

Result<ChronographExperimentResult> RunChronographExperiment(
    const std::vector<Event>& stream,
    const ChronographExperimentConfig& config) {
  ChronographExperimentResult result;
  result.tracked_users =
      PickTrackedUsers(stream, config.track_top_k, config.compute_threads);

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

  // Watermark tracking (§4.5): a marker is "observed" once the engine has
  // applied every graph event that preceded it in the stream.
  struct PendingMarker {
    std::string label;
    uint64_t events_before = 0;
    Timestamp sent;
  };
  std::deque<PendingMarker> pending_markers;
  auto check_markers = [&](double) {
    while (!pending_markers.empty() &&
           engine.updates_applied() >= pending_markers.front().events_before) {
      const PendingMarker& m = pending_markers.front();
      result.marker_latency.push_back(
          {m.label, m.sent, sim.Now() - m.sent});
      pending_markers.pop_front();
    }
  };
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    engine.hooks().Attach("message_processed." + std::to_string(i),
                          check_markers);
  }

  bool stream_done = false;
  replayer.Start(
      stream, [&](const Event& event, size_t) { engine.Ingest(event); },
      [&](const std::string& label) {
        replayer_log.LogText("marker_sent", 1.0, label);
        pending_markers.push_back(
            {label, replayer.events_delivered(), sim.Now()});
      },
      [&] { stream_done = true; });

  // Tracked-user estimate snapshots for retrospective error analysis.
  struct EstimateSnapshot {
    Timestamp time;
    std::vector<double> rank;  // aligned with tracked_users
  };
  std::vector<EstimateSnapshot> snapshots;

  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + config.max_duration;
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

    // Periodic rank-estimate dump.
    EstimateSnapshot snap;
    snap.time = sim.Now();
    snap.rank.reserve(result.tracked_users.size());
    for (VertexId v : result.tracked_users) {
      snap.rank.push_back(engine.RankOf(v));
    }
    snapshots.push_back(std::move(snap));

    return stream_done && engine.Idle() && sim.pending() == 0;
  };
  result.drained_at = sim.RunSampled(config.sample_interval, deadline, sample)
                          .value_or(deadline);

  result.virtual_duration = sim.Now() - t0;
  result.stream_finished_at = replayer.finished_at();
  result.events_ingested = engine.events_ingested();
  result.updates_applied = engine.updates_applied();
  result.residual_messages = engine.residual_messages();
  result.residual_deltas = engine.residual_deltas();

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

  // Retrospective rank-error analysis: reconstruct the graph at each error
  // evaluation point from the recorded delivery times and compare the
  // online estimates against batch PageRank (§4.3 Computation Metrics).
  {
    const std::vector<Timestamp>& times = replayer.delivery_times();
    // Graph events of the stream, in delivery order.
    std::vector<const Event*> graph_events;
    graph_events.reserve(times.size());
    for (const Event& e : stream) {
      if (IsGraphOp(e.type)) graph_events.push_back(&e);
    }
    Graph reconstructed;
    size_t cursor = 0;
    Timestamp next_eval = t0 + config.error_interval;
    MetricsLogger error_log("analysis", sim.clock());
    for (const EstimateSnapshot& snap : snapshots) {
      if (snap.time < next_eval) continue;
      next_eval = snap.time + config.error_interval;
      while (cursor < graph_events.size() && cursor < times.size() &&
             times[cursor] <= snap.time) {
        (void)reconstructed.Apply(*graph_events[cursor]);
        ++cursor;
      }
      if (reconstructed.num_vertices() == 0) continue;
      const CsrGraph csr =
          CsrGraph::FromGraph(reconstructed, config.compute_threads);
      const PageRankResult exact =
          PageRank(csr, {.threads = config.compute_threads});
      std::vector<double> errors;
      for (size_t i = 0; i < result.tracked_users.size(); ++i) {
        CsrGraph::Index idx;
        if (!csr.IndexOf(result.tracked_users[i], &idx)) continue;
        const double exact_rank = exact.ranks[idx];
        if (exact_rank <= 0.0) continue;
        errors.push_back(std::abs(snap.rank[i] - exact_rank) / exact_rank);
      }
      RankErrorSample sample_out;
      sample_out.time = snap.time;
      sample_out.median_relative_error = Median(std::move(errors));
      error_log.LogAt(snap.time, "rank_error",
                      sample_out.median_relative_error);
      result.rank_error.push_back(sample_out);
    }

    LogCollector collector;
    collector.AddLogger(&replayer_log);
    for (const auto& log : worker_logs) collector.AddLogger(log.get());
    collector.AddLogger(&error_log);
    result.log = collector.Collect();
  }
  return result;
}

}  // namespace graphtides
