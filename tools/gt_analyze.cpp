// gt_analyze — result-log analysis (Fig. 2 "Log Collector" output side;
// §4.5 assessment): merges one or more per-logger CSV log files into the
// chronologically sorted result log, prints per-metric statistics, and
// optionally runs marker correlation and cross-correlation between two
// metrics.
//
// Usage:
//   gt_analyze --log run1.csv --log-2 run2.csv
//   gt_analyze --log result.csv --correlate replayer.replay_rate,worker-1.queue_length --bin-ms 1000
//   gt_analyze --log result.csv --markers marker_sent,marker_seen
//   gt_analyze --telemetry run.telemetry.jsonl
//
// Flags:
//   --log FILE [--log-2 FILE --log-3 FILE]  input logs (merged)
//   --out FILE                merged result log output
//   --markers SENT,SEEN      correlate marker metrics, print latencies
//   --correlate A,B          cross-correlate metric series "source.metric"
//   --bin-ms N               resampling bin for correlation (default 1000)
//   --max-lag N              lag search range in bins (default 10)
//   --telemetry FILE         post-hoc analysis of a JSONL telemetry sidecar
//                            (gt_replay --telemetry-out): throughput over
//                            the run, final per-stage/marker percentile
//                            tables, shard balance, fault counters
//   --stream FILE            reconstruct the graph from a stream file (CSV
//                            or gt-stream-v2) and run the batch reference
//                            computations (statistics, PageRank, WCC,
//                            triangles) with per-kernel timings
//   --threads N              worker threads for --stream computations
//                            (0 = auto: hardware concurrency)
//   --frontier FILE          render a gt-frontier-v1 capacity artifact
//                            (gt_campaign --frontier / gt_replay
//                            --find-capacity) and validate its invariants
//   --frontier-compare FILE2 reproducibility check: identical step
//                            schedules and mutually CI95-compatible
//                            sustainable rates (exit 2 on mismatch)
//   --expect-range LO,HI     sanity band: exit 2 unless the sustainable
//                            rate [ev/s] falls inside [LO, HI]
#include <chrono>
#include <cstdio>

#include <fstream>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/statistics.h"
#include "algorithms/triangles.h"
#include "analysis/time_series.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/capacity/frontier.h"
#include "harness/log_collector.h"
#include "harness/marker_correlator.h"
#include "harness/report.h"
#include "harness/telemetry/snapshot.h"
#include "stream/v2_reader.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_analyze: %s\n", status.ToString().c_str());
  return 1;
}

/// Splits "source.metric" (metric may not contain a dot; source may).
std::pair<std::string, std::string> SplitSeriesName(const std::string& s) {
  const size_t dot = s.rfind('.');
  if (dot == std::string::npos) return {"", s};
  return {s.substr(0, dot), s.substr(dot + 1)};
}

/// Post-hoc read of a JSONL telemetry sidecar: per-snapshot throughput
/// trace plus the final cumulative stage/marker/sink state.
int AnalyzeTelemetry(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) return Fail(Status::IoError("cannot read " + path));
  std::vector<TelemetrySnapshot> snaps;
  std::string line;
  size_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto snap = TelemetrySnapshot::FromJsonLine(line);
    if (!snap.ok()) {
      return Fail(snap.status().WithContext(path + " line " +
                                            std::to_string(line_no)));
    }
    snaps.push_back(std::move(*snap));
  }
  if (snaps.empty()) {
    return Fail(Status::InvalidArgument(path + " holds no snapshots"));
  }
  const TelemetrySnapshot& last = snaps.back();
  std::printf("telemetry: %zu snapshot(s) over %.3f s, %llu events "
              "(%.0f ev/s overall), %zu shard(s)\n",
              snaps.size(), last.elapsed_s,
              static_cast<unsigned long long>(last.events),
              last.elapsed_s > 0.0
                  ? static_cast<double>(last.events) / last.elapsed_s
                  : 0.0,
              last.shard_events.size());

  TextTable trace({"seq", "elapsed [s]", "events", "ev/s", "imbalance"});
  for (const TelemetrySnapshot& s : snaps) {
    trace.AddRow({std::to_string(s.seq),
                  TextTable::FormatDouble(s.elapsed_s, 3),
                  std::to_string(s.events),
                  TextTable::FormatDouble(s.events_per_sec, 0),
                  TextTable::FormatDouble(s.shard_imbalance, 3)});
  }
  std::printf("\n%s", trace.ToString().c_str());

  TextTable stages({"stage", "count", "p50 [us]", "p90 [us]", "p99 [us]",
                    "p99.9 [us]", "max [us]"});
  bool any_stage = false;
  for (size_t i = 0; i < kReplayStageCount; ++i) {
    const StageSummary& s = last.stages[i];
    if (s.count == 0) continue;
    any_stage = true;
    stages.AddRow({std::string(ReplayStageName(static_cast<ReplayStage>(i))),
                   std::to_string(s.count),
                   TextTable::FormatDouble(s.p50_us, 1),
                   TextTable::FormatDouble(s.p90_us, 1),
                   TextTable::FormatDouble(s.p99_us, 1),
                   TextTable::FormatDouble(s.p999_us, 1),
                   TextTable::FormatDouble(s.max_us, 1)});
  }
  if (any_stage) {
    std::printf("\nfinal sampled stage spans:\n%s", stages.ToString().c_str());
  }
  if (last.markers.sent > 0) {
    std::printf("\nmarkers: %llu sent, %llu matched, %llu unmatched, "
                "%llu pending, %llu orphan observation(s)\n",
                static_cast<unsigned long long>(last.markers.sent),
                static_cast<unsigned long long>(last.markers.matched),
                static_cast<unsigned long long>(last.markers.unmatched),
                static_cast<unsigned long long>(last.markers.pending),
                static_cast<unsigned long long>(last.markers.orphans));
    if (last.markers.latency.count > 0) {
      std::printf("marker latency: p50 %.1f us, p99 %.1f us, max %.1f us\n",
                  last.markers.latency.p50_us, last.markers.latency.p99_us,
                  last.markers.latency.max_us);
    }
  }
  if (last.sink.any()) {
    std::printf("\ndelivery faults: %llu retries, %llu reconnects, "
                "%llu drops, %llu giveups, backoff %.3f s, stall %.3f s\n",
                static_cast<unsigned long long>(last.sink.retries),
                static_cast<unsigned long long>(last.sink.reconnects),
                static_cast<unsigned long long>(last.sink.drops_after_retry),
                static_cast<unsigned long long>(last.sink.giveups),
                last.sink.backoff_s, last.sink.stall_s);
  }
  return 0;
}

/// Reconstructs the target graph from a stream file and runs the batch
/// reference computations on it (§4.3: exact results "by reconstructing
/// the target graph and running a separate batch computation").
int AnalyzeStream(const std::string& path, size_t threads) {
  const auto start = std::chrono::steady_clock::now();
  auto events = ReadStreamFileAnyFormat(path);
  if (!events.ok()) return Fail(events.status());

  // Lenient application: a stream under analysis may contain events the
  // strict builder rejects (duplicates, unknown endpoints); count them
  // instead of bailing so partial or faulty captures stay analyzable.
  Graph graph;
  size_t rejected = 0;
  for (const Event& event : *events) {
    if (!graph.Apply(event).ok()) ++rejected;
  }

  auto elapsed_ms = [&start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double last_ms = elapsed_ms();
  std::printf("stream: %zu event(s) -> %zu vertices, %zu edges "
              "(%zu rejected), load %.1f ms, threads %zu\n\n",
              events->size(), graph.num_vertices(), graph.num_edges(),
              rejected, last_ms, threads);

  TextTable table({"computation", "time [ms]", "result"});
  auto add = [&](const char* name, const std::string& result) {
    const double now_ms = elapsed_ms();
    table.AddRow({name, TextTable::FormatDouble(now_ms - last_ms, 2), result});
    last_ms = now_ms;
  };

  const CsrGraph csr = CsrGraph::FromGraph(graph, threads);
  add("csr build", std::to_string(csr.num_vertices()) + " vertices, " +
                       std::to_string(csr.num_edges()) + " edges");
  const GraphStatistics stats = ComputeGraphStatistics(csr, threads);
  add("graph statistics", stats.ToString());
  const PageRankResult pr = PageRank(csr, {.threads = threads});
  add("pagerank",
      std::to_string(pr.iterations) + " iterations" +
          (pr.converged ? "" : " (not converged)") + ", top rank " +
          (pr.ranks.empty()
               ? std::string("n/a")
               : TextTable::FormatDouble(pr.ranks[TopKByRank(pr.ranks, 1)[0]],
                                         6)));
  const ComponentsResult wcc =
      WeaklyConnectedComponents(csr, {.threads = threads});
  add("weakly connected components",
      std::to_string(wcc.num_components) + " component(s), largest " +
          std::to_string(wcc.LargestSize()));
  const uint64_t triangles = CountTriangles(csr, threads);
  add("triangle count", std::to_string(triangles) + " triangle(s)");

  std::printf("%s", table.ToString().c_str());
  return 0;
}

Result<FrontierArtifact> LoadFrontier(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) return Status::IoError("cannot read " + path);
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  auto artifact = FrontierArtifact::FromJson(text);
  if (!artifact.ok()) return artifact.status().WithContext(path);
  return artifact;
}

/// Renders + validates a frontier artifact; optionally checks
/// reproducibility against a second run and a sanity band. Exit 0 = all
/// checks passed, 2 = a check failed, 1 = unreadable input.
int AnalyzeFrontier(const std::string& path, const std::string& compare_path,
                    const std::string& range) {
  auto artifact = LoadFrontier(path);
  if (!artifact.ok()) return Fail(artifact.status());
  std::printf("%s", FormatFrontierTable(*artifact).c_str());

  bool ok = true;
  if (Status st = ValidateFrontier(*artifact); !st.ok()) {
    std::fprintf(stderr, "gt_analyze: frontier invalid: %s\n",
                 st.ToString().c_str());
    ok = false;
  }

  if (!compare_path.empty()) {
    auto other = LoadFrontier(compare_path);
    if (!other.ok()) return Fail(other.status());
    if (Status st = CompareFrontiers(*artifact, *other); !st.ok()) {
      std::fprintf(stderr, "gt_analyze: runs not reproducible: %s\n",
                   st.ToString().c_str());
      ok = false;
    } else {
      std::printf("reproducible: schedules identical (%zu steps), "
                  "sustainable %.0f vs %.0f ev/s within CI95\n",
                  artifact->step_schedule.size(),
                  artifact->sustainable_rate_eps,
                  other->sustainable_rate_eps);
    }
  }

  if (!range.empty()) {
    const auto parts = SplitString(range, ',');
    const auto lo_or = parts.size() == 2 ? ParseDouble(parts[0])
                                         : Result<double>(Status::InvalidArgument(""));
    const auto hi_or = parts.size() == 2 ? ParseDouble(parts[1])
                                         : Result<double>(Status::InvalidArgument(""));
    if (!lo_or.ok() || !hi_or.ok() || *lo_or > *hi_or) {
      return Fail(
          Status::InvalidArgument("--expect-range wants LO,HI (ev/s)"));
    }
    const double lo = *lo_or, hi = *hi_or;
    if (artifact->sustainable_rate_eps < lo ||
        artifact->sustainable_rate_eps > hi) {
      std::fprintf(stderr,
                   "gt_analyze: sustainable rate %.0f ev/s outside the "
                   "expected band [%.0f, %.0f]\n",
                   artifact->sustainable_rate_eps, lo, hi);
      ok = false;
    } else {
      std::printf("sustainable rate %.0f ev/s within expected [%.0f, %.0f]\n",
                  artifact->sustainable_rate_eps, lo, hi);
    }
  }
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A flag's default is what its destination holds before parsing.
  std::string log_paths[3];  // --log, --log-2, --log-3
  std::string out;
  std::string markers;
  std::string correlate;
  Duration bin = Duration::FromMillis(1000);
  int max_lag = 10;
  std::string telemetry_path;
  std::string stream_path;
  size_t threads = 0;
  std::string frontier_path;
  std::string compare_path;
  std::string range;
  FlagTable flags("gt_analyze");
  flags.Add("log", &log_paths[0]);
  flags.Add("log-2", &log_paths[1]);
  flags.Add("log-3", &log_paths[2]);
  flags.Add("out", &out);
  flags.Add("markers", &markers);
  flags.Add("correlate", &correlate);
  flags.AddMillis("bin-ms", &bin);
  flags.Add("max-lag", &max_lag);
  flags.Add("telemetry", &telemetry_path);
  flags.Add("stream", &stream_path);
  flags.Add("threads", &threads);
  flags.Add("frontier", &frontier_path);
  flags.Add("frontier-compare", &compare_path);
  flags.Add("expect-range", &range);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;

  if (!frontier_path.empty()) {
    return AnalyzeFrontier(frontier_path, compare_path, range);
  }
  if (!telemetry_path.empty()) return AnalyzeTelemetry(telemetry_path);
  if (!stream_path.empty()) {
    return AnalyzeStream(stream_path, ResolveThreads(threads));
  }

  // Merge all provided logs.
  std::vector<LogRecord> all;
  for (const std::string& path : log_paths) {
    if (path.empty()) continue;
    auto log = ResultLog::ReadCsv(path);
    if (!log.ok()) return Fail(log.status());
    all.insert(all.end(), log->records().begin(), log->records().end());
  }
  if (all.empty()) {
    return Fail(Status::InvalidArgument("no --log input given (or empty)"));
  }
  const ResultLog log(std::move(all));

  // Per source.metric statistics.
  std::map<std::string, RunningStats> by_series;
  for (const LogRecord& r : log.records()) {
    by_series[r.source + "." + r.metric].Add(r.value);
  }
  TextTable table({"series", "n", "mean", "min", "max"});
  for (const auto& [name, stats] : by_series) {
    table.AddRow({name, std::to_string(stats.count()),
                  TextTable::FormatDouble(stats.mean(), 3),
                  TextTable::FormatDouble(stats.min(), 3),
                  TextTable::FormatDouble(stats.max(), 3)});
  }
  std::printf("result log: %zu records, %zu sources, spanning %.3f s\n\n",
              log.size(), log.Sources().size(),
              log.records().empty()
                  ? 0.0
                  : (log.records().back().time - log.records().front().time)
                        .seconds());
  std::printf("%s", table.ToString().c_str());

  if (!out.empty()) {
    if (Status st = log.WriteCsv(out); !st.ok()) return Fail(st);
    std::printf("\nmerged log -> %s\n", out.c_str());
  }

  // Marker correlation (watermark latency, §4.5).
  if (!markers.empty()) {
    const auto parts = SplitString(markers, ',');
    if (parts.size() != 2) {
      return Fail(Status::InvalidArgument("--markers expects SENT,SEEN"));
    }
    const auto report = CorrelateMarkers(log, std::string(parts[0]),
                                         std::string(parts[1]));
    std::printf("\nmarker correlation (%s -> %s): %zu matched, %zu "
                "unmatched\n",
                std::string(parts[0]).c_str(), std::string(parts[1]).c_str(),
                report.matched.size(), report.unmatched.size());
    if (!report.latency.empty()) {
      std::printf("latency: median %.6f s, p99 %.6f s\n",
                  report.latency.ValueAtQuantileSeconds(0.5),
                  report.latency.ValueAtQuantileSeconds(0.99));
      std::printf("%s", PercentileTable(
                            "metric", {{"marker_latency", &report.latency}})
                            .c_str());
    }
  }

  // Cross-correlation between two series (§4.5 time-series analyses).
  if (!correlate.empty()) {
    const auto parts = SplitString(correlate, ',');
    if (parts.size() != 2) {
      return Fail(Status::InvalidArgument("--correlate expects A,B"));
    }
    const auto [src_a, met_a] = SplitSeriesName(std::string(parts[0]));
    const auto [src_b, met_b] = SplitSeriesName(std::string(parts[1]));
    const TimeSeries a = log.Series(src_a, met_a);
    const TimeSeries b = log.Series(src_b, met_b);
    if (a.empty() || b.empty()) {
      return Fail(Status::NotFound("one of the series is empty"));
    }
    const Timestamp from = std::min(a.start(), b.start());
    const Timestamp to = std::max(a.end(), b.end());
    const auto sa = a.ResampleMean(from, to, bin);
    const auto sb = b.ResampleMean(from, to, bin);
    double correlation = 0.0;
    const int lag = BestCrossCorrelationLag(sa, sb, max_lag, &correlation);
    std::printf("\ncross-correlation %s vs %s (bin %lld ms): r = %.3f at "
                "lag %+d bins\n",
                std::string(parts[0]).c_str(), std::string(parts[1]).c_str(),
                static_cast<long long>(bin.millis()), correlation, lag);
  }
  return 0;
}
