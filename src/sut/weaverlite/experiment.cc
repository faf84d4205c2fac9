#include "sut/weaverlite/experiment.h"

#include <memory>

#include "harness/metrics_logger.h"
#include "sim/simulator.h"
#include "sim/virtual_replayer.h"
#include "sut/weaverlite/weaver_client.h"

namespace graphtides {

Result<WeaverExperimentResult> RunWeaverExperiment(
    const std::vector<Event>& stream, const WeaverExperimentConfig& config) {
  if (config.events_per_tx == 0) {
    return Status::InvalidArgument("events_per_tx must be >= 1");
  }
  Simulator sim;
  WeaverLiteOptions weaver_options = config.weaver;
  weaver_options.utilization_bin = config.sample_interval;
  WeaverLite store(&sim, weaver_options);
  WeaverClient client(&store, config.events_per_tx);
  store.SetOnTransactionDone([&client] { client.Drain(); });

  VirtualReplayer replayer(&sim, config.target_rate_eps);

  MetricsLogger replayer_log("replayer", sim.clock());
  MetricsLogger client_log("client", sim.clock());

  if (config.client_backlog_limit_tx > 0) {
    replayer.SetGate([&client, &config] {
      return client.backlog_transactions() < config.client_backlog_limit_tx;
    });
  }
  replayer.Start(
      stream,
      [&](const Event& event, size_t) {
        client.Add(event);
        client.Drain();
      },
      [&](const std::string& label) {
        replayer_log.LogText("marker", 1.0, label);
      },
      [&] { client.Flush(); });

  // Periodic sampler: processed-events delta, queue lengths.
  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + config.max_duration;
  uint64_t last_applied = 0;
  std::vector<double> processed;
  auto sample = [&] {
    const uint64_t applied = store.events_applied();
    processed.push_back(static_cast<double>(applied - last_applied));
    client_log.Log("events_applied_delta",
                   static_cast<double>(applied - last_applied));
    client_log.Log("admission_queue",
                   static_cast<double>(store.admission_queue_length()));
    client_log.Log("client_backlog_tx",
                   static_cast<double>(client.backlog_transactions()));
    last_applied = applied;
    // The sampler itself is executing (not pending); zero pending work
    // means emission, timestamping, routing, and shard applies are done.
    return replayer.finished() && client.Idle() &&
           store.admission_queue_length() == 0 && sim.pending() == 0;
  };
  const bool drained =
      sim.RunSampled(config.sample_interval, deadline, sample).has_value();

  WeaverExperimentResult result;
  result.events_offered = client.events_offered();
  result.events_applied = store.events_applied();
  result.transactions_committed = store.transactions_committed();
  result.drained = drained;
  // Over the *active* window: up to the last apply when fully drained.
  result.virtual_duration = (drained ? store.last_apply_at() : sim.Now()) - t0;
  result.processed_per_interval = std::move(processed);
  result.timestamper_utilization =
      store.timestamper().UtilizationSeries(sim.Now());
  for (size_t s = 0; s < store.num_shards(); ++s) {
    result.shard_utilization.push_back(
        store.shard(s).UtilizationSeries(sim.Now()));
  }

  // Fold per-process CPU into the result log.
  MetricsLogger ts_log("weaver-timestamper", sim.clock());
  for (size_t i = 0; i < result.timestamper_utilization.size(); ++i) {
    ts_log.LogAt(t0 + config.sample_interval * static_cast<int64_t>(i), "cpu",
                 result.timestamper_utilization[i] * 100.0);
  }
  std::vector<std::unique_ptr<MetricsLogger>> shard_logs;
  for (size_t s = 0; s < result.shard_utilization.size(); ++s) {
    auto log = std::make_unique<MetricsLogger>(
        "weaver-shard-" + std::to_string(s), sim.clock());
    for (size_t i = 0; i < result.shard_utilization[s].size(); ++i) {
      log->LogAt(t0 + config.sample_interval * static_cast<int64_t>(i), "cpu",
                 result.shard_utilization[s][i] * 100.0);
    }
    shard_logs.push_back(std::move(log));
  }

  LogCollector collector;
  collector.AddLogger(&replayer_log);
  collector.AddLogger(&client_log);
  collector.AddLogger(&ts_log);
  for (const auto& log : shard_logs) collector.AddLogger(log.get());
  result.log = collector.Collect();
  return result;
}

}  // namespace graphtides
