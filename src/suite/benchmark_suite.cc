#include "suite/benchmark_suite.h"

#include <algorithm>
#include <optional>

#include "algorithms/pagerank.h"
#include "common/stats.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "harness/report.h"
#include "harness/telemetry/latency_histogram.h"
#include "sim/virtual_replayer.h"
#include "suite/recoverable_connector.h"

namespace graphtides {

namespace {

size_t RoundsFor(SuiteSize size) {
  switch (size) {
    case SuiteSize::kTiny:
      return 2000;
    case SuiteSize::kSmall:
      return 20000;
    case SuiteSize::kMedium:
      return 100000;
    case SuiteSize::kLarge:
      return 400000;
  }
  return 20000;
}

SuiteWorkload BuildWorkload(const std::string& name, GeneratorModel* model,
                            size_t rounds, uint64_t seed, double rate) {
  StreamGeneratorOptions gen;
  gen.rounds = rounds;
  gen.seed = seed;
  gen.emit_phase_markers = false;
  auto generated = StreamGenerator(model, gen).Generate();
  SuiteWorkload workload;
  workload.name = name;
  workload.rate_eps = rate;
  if (!generated.ok()) return workload;  // empty workload signals failure
  std::vector<Event> events = std::move(generated).value().events;
  size_t graph_events = 0;
  for (const Event& e : events) {
    if (IsGraphOp(e.type)) ++graph_events;
  }
  // Watermarks every ~5% of the stream.
  std::vector<ScheduleEntry> schedule;
  const size_t step = std::max<size_t>(1, graph_events / 20);
  for (size_t at = step; at < graph_events; at += step) {
    schedule.push_back({at, Event::Marker("WM_" + std::to_string(at))});
  }
  workload.events = ApplyControlSchedule(std::move(events), schedule);
  workload.graph_events = graph_events;
  return workload;
}

}  // namespace

std::vector<SuiteWorkload> StandardWorkloads(SuiteSize size, uint64_t seed) {
  const size_t rounds = RoundsFor(size);
  std::vector<SuiteWorkload> workloads;
  {
    SocialNetworkModel model;
    workloads.push_back(
        BuildWorkload("social", &model, rounds, seed, 2000.0));
  }
  {
    DdosModelOptions options;
    options.attacks = {{rounds / 3, 2 * rounds / 3}};
    DdosModel model(options);
    workloads.push_back(BuildWorkload("ddos", &model, rounds, seed, 4000.0));
  }
  {
    BlockchainModel model;
    workloads.push_back(
        BuildWorkload("blockchain", &model, rounds, seed, 2000.0));
  }
  {
    EventMixModelOptions options;
    options.ba = {std::max<size_t>(rounds / 20, 100),
                  std::max<size_t>(rounds / 400, 10), 5};
    EventMixModel model(options);
    workloads.push_back(BuildWorkload("mix", &model, rounds, seed, 2000.0));
  }
  return workloads;
}

Result<SuiteCaseScore> RunSuiteCase(const SuiteWorkload& workload,
                                    const ConnectorFactory& factory,
                                    const SuiteCaseOptions& options) {
  if (workload.events.empty()) {
    return Status::InvalidArgument("empty workload: " + workload.name);
  }
  const std::vector<VertexId> tracked = TopRankedVertices(
      workload.events, options.track_top_k, options.compute_threads);

  Simulator sim;
  std::unique_ptr<SuiteConnector> connector = factory(&sim);
  if (connector == nullptr) {
    return Status::InvalidArgument("connector factory returned null");
  }

  VirtualReplayer replayer(&sim, workload.rate_eps);
  replayer.Start(workload.events,
                 [&](const Event& e, size_t) { connector->Ingest(e); });

  // Rank snapshots for retrospective accuracy. `idle_s` discounts the time
  // the system has not changed since it drained from the result's age.
  std::vector<RankEstimate> estimates;
  RunningStats result_age;
  auto snapshot = [&](double idle_s) {
    const auto ranks = connector->CurrentRanks();
    RankEstimate& estimate = estimates.emplace_back();
    estimate.time = sim.Now();
    for (VertexId v : tracked) {
      auto it = ranks.find(v);
      estimate.ranks.push_back(it == ranks.end() ? 0.0 : it->second);
    }
    const double age =
        std::max(0.0, connector->ResultAge().seconds() - idle_s);
    if (age < 1e8) result_age.Add(age);
  };

  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + options.max_duration;
  Timestamp next_rank_sample = t0 + options.error_interval;
  auto sample = [&] {
    replayer.ObserveApplied(connector->EventsApplied());
    if (sim.Now() >= next_rank_sample) {
      next_rank_sample = next_rank_sample + options.error_interval;
      snapshot(0.0);
    }
    return replayer.finished() && connector->Idle() &&
           replayer.PendingMarkerSends().empty();
  };
  const std::optional<Timestamp> drained_at =
      sim.RunSampled(options.sample_interval, deadline, sample);

  // One final snapshot after the run so epoch-style connectors' last
  // published result is always scored. RunUntil advanced the clock to the
  // deadline even for early-drained runs; staleness is therefore taken
  // relative to the drain instant, where the system last changed.
  snapshot(drained_at ? (sim.Now() - *drained_at).seconds() : 0.0);

  SuiteCaseScore score;
  score.workload = workload.name;
  score.connector = connector->Name();
  score.graph_events = workload.graph_events;
  score.offered_rate_eps = workload.rate_eps;
  score.drained = drained_at.has_value();
  score.drained_s = (drained_at.value_or(sim.Now()) - t0).seconds();
  if (score.drained_s > 0) {
    score.applied_rate_eps =
        static_cast<double>(connector->EventsApplied()) / score.drained_s;
  }
  LatencyHistogram watermark_latencies;
  for (const MarkerLatencySample& m : replayer.visible_markers()) {
    watermark_latencies.Record(m.latency);
  }
  if (!watermark_latencies.empty()) {
    score.watermark_p50_s = watermark_latencies.ValueAtQuantileSeconds(0.5);
    score.watermark_p99_s = watermark_latencies.ValueAtQuantileSeconds(0.99);
  }
  score.mean_result_age_s = result_age.mean();

  RunningStats error_stats;
  for (const std::optional<double>& error : RetrospectiveRankErrors(
           workload.events, replayer.delivery_times(), estimates, tracked,
           options.compute_threads)) {
    if (!error) continue;
    score.final_rank_error = *error;
    error_stats.Add(*error);
  }
  if (error_stats.count() > 0) score.mean_rank_error = error_stats.mean();
  return score;
}

Result<CapacityPointScore> MeasureCapacityPoint(
    const SuiteWorkload& workload, const ConnectorFactory& factory,
    double rate_eps, const SuiteCaseOptions& options) {
  if (workload.events.empty()) {
    return Status::InvalidArgument("empty workload: " + workload.name);
  }
  if (rate_eps <= 0.0) {
    return Status::InvalidArgument("rate must be positive");
  }

  Simulator sim;
  std::unique_ptr<SuiteConnector> connector = factory(&sim);
  if (connector == nullptr) {
    return Status::InvalidArgument("connector factory returned null");
  }

  VirtualReplayer replayer(&sim, rate_eps);
  replayer.Start(workload.events,
                 [&](const Event& e, size_t) { connector->Ingest(e); });

  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + options.max_duration;
  auto sample = [&] {
    replayer.ObserveApplied(connector->EventsApplied());
    return replayer.finished() && connector->Idle() &&
           replayer.PendingMarkerSends().empty();
  };
  const std::optional<Timestamp> drained_at =
      sim.RunSampled(options.sample_interval, deadline, sample);

  LatencyHistogram watermark_latencies;
  for (const MarkerLatencySample& m : replayer.visible_markers()) {
    watermark_latencies.Record(m.latency);
  }
  if (!drained_at) {
    // Watermarks still invisible at the deadline are censored observations:
    // their true latency is at least their current age. Recording the age
    // keeps the p99 honest under partial saturation (some watermarks
    // surfaced early, later ones never did).
    for (Timestamp sent : replayer.PendingMarkerSends()) {
      watermark_latencies.Record(sim.Now() - sent);
    }
  }

  CapacityPointScore score;
  score.offered_rate_eps = rate_eps;
  score.drained = drained_at.has_value();
  const double active_s = (drained_at.value_or(sim.Now()) - t0).seconds();
  if (active_s > 0.0) {
    score.achieved_rate_eps =
        static_cast<double>(connector->EventsApplied()) / active_s;
  }
  score.watermarks_visible = watermark_latencies.count();
  if (!watermark_latencies.empty()) {
    score.watermark_p50_s = watermark_latencies.ValueAtQuantileSeconds(0.5);
    score.watermark_p99_s = watermark_latencies.ValueAtQuantileSeconds(0.99);
  } else if (!drained_at) {
    // Saturated past the point of any watermark becoming visible within
    // the deadline: report the run's whole span as the latency floor so
    // the search sees an unambiguous violation rather than silence.
    score.watermark_p50_s = active_s;
    score.watermark_p99_s = active_s;
    score.watermarks_visible = 1;
  }
  return score;
}

Result<CrashRecoveryReport> RunCrashRecoveryCase(
    const SuiteWorkload& workload, const ConnectorFactory& factory,
    const CrashRecoveryOptions& options) {
  if (workload.events.empty()) {
    return Status::InvalidArgument("empty workload: " + workload.name);
  }
  const std::vector<VertexId> tracked = TopRankedVertices(
      workload.events, options.track_top_k, options.compute_threads);

  Simulator sim;
  RecoverableOptions rec_options;
  rec_options.journal_during_downtime = options.journal_during_downtime;
  RecoverableConnector connector(&sim, factory, rec_options);

  VirtualReplayer replayer(&sim, workload.rate_eps);
  replayer.Start(workload.events,
                 [&](const Event& e, size_t) { connector.Ingest(e); });

  const Timestamp t0 = sim.Now();
  const Timestamp deadline = t0 + options.max_duration;
  uint64_t applied_at_crash = 0;
  sim.ScheduleAfter(options.kill_after, [&] {
    applied_at_crash = connector.EventsApplied();
    connector.Crash();
  });
  sim.ScheduleAfter(options.kill_after + options.downtime,
                    [&] { connector.Recover(); });

  bool catchup_seen = false;
  Timestamp catchup_at;
  auto sample = [&] {
    const bool post_recovery = connector.crashes() > 0 && !connector.crashed();
    if (!catchup_seen && post_recovery &&
        connector.inner_applied() >= applied_at_crash) {
      catchup_seen = true;
      catchup_at = sim.Now();
    }
    return replayer.finished() && post_recovery && connector.Idle();
  };
  const std::optional<Timestamp> drained_at =
      sim.RunSampled(options.sample_interval, deadline, sample);

  CrashRecoveryReport report;
  report.workload = workload.name;
  report.connector = connector.Name();
  report.crash_at_s = options.kill_after.seconds();
  report.recover_at_s = (options.kill_after + options.downtime).seconds();
  report.journal_events = connector.last_recovery_journal();
  report.lost_events = connector.lost_events();
  report.recovered = catchup_seen;
  if (catchup_seen) {
    report.recovery_catchup_s =
        (catchup_at - connector.last_recovered_at()).seconds();
  }
  report.drained = drained_at.has_value();
  report.drained_s = (drained_at.value_or(sim.Now()) - t0).seconds();

  // Post-recovery consistency: the final estimates against the exact ranks
  // of the graph delivered by the end of the run.
  const auto ranks = connector.CurrentRanks();
  RankEstimate final_estimate{sim.Now(), {}};
  for (VertexId v : tracked) {
    const auto it = ranks.find(v);
    final_estimate.ranks.push_back(it == ranks.end() ? 0.0 : it->second);
  }
  const std::optional<double> error =
      RetrospectiveRankErrors(workload.events, replayer.delivery_times(),
                              {final_estimate}, tracked,
                              options.compute_threads)
          .front();
  if (error) report.final_rank_error = *error;
  return report;
}

Result<std::vector<SuiteCaseScore>> RunSuite(
    const std::vector<SuiteWorkload>& workloads,
    const std::vector<SuiteEntry>& connectors,
    const SuiteCaseOptions& options) {
  std::vector<SuiteCaseScore> scores;
  for (const SuiteWorkload& workload : workloads) {
    for (const SuiteEntry& entry : connectors) {
      GT_ASSIGN_OR_RETURN(SuiteCaseScore score,
                          RunSuiteCase(workload, entry.factory, options));
      if (!entry.name.empty()) score.connector = entry.name;
      scores.push_back(std::move(score));
    }
  }
  return scores;
}

std::string FormatSuiteReport(const std::vector<SuiteCaseScore>& scores) {
  TextTable table({"workload", "connector", "events", "rate [ev/s]",
                   "applied [ev/s]", "drained [s]", "wm p50 [s]",
                   "wm p99 [s]", "mean err", "final err", "staleness [s]"});
  for (const SuiteCaseScore& s : scores) {
    table.AddRow({s.workload, s.connector, std::to_string(s.graph_events),
                  TextTable::FormatDouble(s.offered_rate_eps, 0),
                  TextTable::FormatDouble(s.applied_rate_eps, 0),
                  TextTable::FormatDouble(s.drained_s, 1) +
                      (s.drained ? "" : "+"),
                  TextTable::FormatDouble(s.watermark_p50_s, 3),
                  TextTable::FormatDouble(s.watermark_p99_s, 3),
                  TextTable::FormatDouble(s.mean_rank_error, 4),
                  TextTable::FormatDouble(s.final_rank_error, 4),
                  TextTable::FormatDouble(s.mean_result_age_s, 2)});
  }
  return table.ToString();
}

}  // namespace graphtides
