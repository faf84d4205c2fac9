#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/statistics.h"
#include "algorithms/triangles.h"
#include "common/crc32.h"
#include "common/stats.h"
#include "generator/event_consumer.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "generator/stream_pipeline.h"
#include "generator/v2_consumer.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/telemetry/latency_histogram.h"
#include "harness/telemetry/run_telemetry.h"
#include "replayer/event_sink.h"
#include "replayer/sharded_replayer.h"
#include "stream/block_reader.h"
#include "stream/event.h"
#include "stream/event_view.h"
#include "stream/stream_file.h"
#include "stream/v2_reader.h"
#include "suite/benchmark_suite.h"
#include "suite/connectors/hybrid_connector.h"
#include "suite/connectors/offline_connector.h"
#include "suite/connectors/online_connector.h"

namespace graphtides::e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"throughput", "1/s"},
      {"latency_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"generator.ns_per_event", "ns"},
      {"generator.events", "count"},
      {"stream.v2_encode_ns_per_event", "ns"},
      {"stream.csv_encode_ns_per_event", "ns"},
      {"stream.v2_decode_ns_per_event", "ns"},
      {"stream.csv_decode_ns_per_event", "ns"},
      {"stream.file_bytes_per_event", "B"},
      {"replayer.deliver_ns_per_event", "ns"},
      {"replayer.lane_self_ns_per_event", "ns"},
      {"replayer.wire_bytes_per_event", "B"},
      {"replayer.batches", "count"},
      {"replayer.lane_skew", "ratio"},
      {"replayer.barrier_us_p50", "us"},
      {"replayer.barrier_us_p99", "us"},
      {"replayer.lateness_mean_us", "us"},
      {"replayer.lateness_p50_us", "us"},
      {"replayer.lateness_p99_us", "us"},
      {"replayer.marker_p50_ms", "ms"},
      {"replayer.marker_p99_ms", "ms"},
      {"replayer.bin_rate_p05_ratio", "ratio"},
      {"replayer.achieved_ratio", "ratio"},
      {"graph.apply_ns_per_event", "ns"},
      {"graph.apply_max_us", "us"},
      {"graph.load_ns_per_event", "ns"},
      {"graph.rejected", "count"},
      {"algorithms.csr_build_ms", "ms"},
      {"algorithms.pagerank_ms", "ms"},
      {"algorithms.wcc_ms", "ms"},
      {"algorithms.triangles_ms", "ms"},
      {"algorithms.statistics_ms", "ms"},
      {"algorithms.csr_build_t1_ms", "ms"},
      {"algorithms.pagerank_t1_ms", "ms"},
      {"algorithms.wcc_t1_ms", "ms"},
      {"algorithms.triangles_t1_ms", "ms"},
      {"algorithms.statistics_t1_ms", "ms"},
      {"telemetry.stage_read_p50_ns", "ns"},
      {"telemetry.stage_throttle_p50_ns", "ns"},
      {"telemetry.stage_serialize_p50_ns", "ns"},
      {"telemetry.stage_deliver_p50_ns", "ns"},
      {"telemetry.stage_ack_p50_ns", "ns"},
      {"telemetry.snapshot_us", "us"},
      {"suite.case_ms.offline", "ms"},
      {"suite.case_ms.online", "ms"},
      {"suite.case_ms.hybrid", "ms"},
      {"suite.workload_gen_ms", "ms"},
      {"process.cpu_s", "s"},
      {"process.ctx_switches_involuntary", "count"},
      {"trace.unattributed_share", "ratio"},
  };
  return kDefs;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paced-graph", "saturate-v2", "saturate-csv", "snapshot-compute",
      "suite-small"};
  return kNames;
}

namespace {

constexpr double kPacedRateEps = 250000.0;
/// Far above any achievable rate: every deadline is already past.
constexpr double kUnthrottledEps = 1e9;
constexpr size_t kSaturateLanes = 2;
constexpr size_t kComputeThreads = 2;
constexpr auto kSnapshotPeriod = std::chrono::milliseconds(500);
/// Closed-loop workloads run at least this many measured passes.
constexpr size_t kMinPasses = 3;
/// How often an untraced run builds its inputs (Run::Setup). Quick
/// set-ups are repeated more, so that every setup_s is a median of
/// several builds.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;
/// Rounds at one thread in a traced snapshot-compute run.
constexpr size_t kSingleThreadRounds = 5;

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

double PerEvent(double total, uint64_t events) {
  return events > 0 ? total / static_cast<double>(events) : 0.0;
}

void Fail(WorkloadOutcome* out, uint64_t count, std::string what) {
  out->failed += count;
  out->failures.push_back(std::move(what));
}

void Expect(WorkloadOutcome* out, bool ok, std::string what) {
  if (!ok) Fail(out, 1, std::move(what));
}

std::string Mismatch(const std::string& what, uint64_t got,
                     uint64_t expected) {
  return what + ": " + std::to_string(got) + ", expected " +
         std::to_string(expected);
}

/// Stores a metric with the unit its definition gives it.
void Set(MetricMap* metrics, const std::string& name, double value) {
  for (const auto* defs : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricDef& def : *defs) {
      if (def.name == name) {
        (*metrics)[name] = {std::isfinite(value) ? value : 0.0, def.unit};
        return;
      }
    }
  }
  std::fprintf(stderr, "e2e_pipeline: undefined metric %s\n", name.c_str());
  std::abort();
}

struct Usage {
  double cpu_s = 0.0;
  long involuntary_switches = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.involuntary_switches = ru.ru_nivcsw;
  return u;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The bookkeeping every workload shares: the main-thread track, the
/// measured-phase window and its process usage, and the metrics common to
/// all workloads.
class Run {
 public:
  explicit Run(const RunConfig& config)
      : config_(config),
        main_(config.tracer != nullptr ? config.tracer->Track("main")
                                       : nullptr) {
    if (traced()) {
      for (const MetricDef& def : LayerMetrics()) Set(&out_.layer, def.name, 0);
    }
  }

  bool traced() const { return config_.tracer != nullptr; }
  TraceTrack* main() const { return main_; }
  TraceTrack* Track(const std::string& name, bool reconcile = true) const {
    return traced() ? config_.tracer->Track(name, reconcile) : nullptr;
  }
  WorkloadOutcome* out() { return &out_; }

  /// Builds the inputs (each build replaces the previous one's) and
  /// records the median build time as setup_s. Builds kMinSetups times,
  /// then more until kSetupBudgetS has passed, at most kMaxSetups times;
  /// once when config.single_setup is set.
  Status Setup(const std::function<Status()>& setup) {
    std::vector<double> times;
    double spent = 0.0;
    while (times.empty() ||
           (!config_.single_setup &&
            (times.size() < kMinSetups ||
             (spent < kSetupBudgetS && times.size() < kMaxSetups)))) {
      const int64_t start = NowNs();
      GT_RETURN_NOT_OK(setup());
      times.push_back(Seconds(NowNs() - start));
      spent += times.back();
      // Every build and the measured phase start from a heap with nothing
      // freed left in it: otherwise peak_rss_mb moved by 10 MB with how
      // much memory the builds happened to leave behind.
      malloc_trim(0);
    }
    Set(&out_.e2e, "setup_s", Median(times));
    return Status::OK();
  }

  void BeginWarmup() {
    if (traced()) config_.tracer->EnterPhase(Phase::kWarmup);
  }
  void BeginMeasure() {
    if (traced()) config_.tracer->EnterPhase(Phase::kMeasure);
    usage_ = ReadUsage();
    measure_start_ns_ = NowNs();
  }
  /// Whether a closed-loop workload runs another measured pass.
  bool MorePasses(size_t done) const {
    if (config_.smoke) return done < 1;
    return done < kMinPasses ||
           Seconds(NowNs() - measure_start_ns_) < config_.seconds;
  }
  void EndMeasure() {
    const Usage now = ReadUsage();
    if (traced()) {
      config_.tracer->EnterPhase(Phase::kIsolated);
      SetLayer("process.cpu_s", now.cpu_s - usage_.cpu_s);
      SetLayer("process.ctx_switches_involuntary",
               static_cast<double>(now.involuntary_switches -
                                   usage_.involuntary_switches));
    }
  }

  void SetE2e(const std::string& name, double value) {
    Set(&out_.e2e, name, value);
  }
  void SetLayer(const std::string& name, double value) {
    if (traced()) Set(&out_.layer, name, value);
  }

  WorkloadOutcome Finish() {
    Set(&out_.e2e, "peak_rss_mb", PeakRssMb());
    return std::move(out_);
  }

 private:
  const RunConfig& config_;
  TraceTrack* main_;
  WorkloadOutcome out_;
  Usage usage_;
  int64_t measure_start_ns_ = 0;
};

// --- Generation ------------------------------------------------------------

StreamGeneratorOptions GenOptions(uint64_t seed, size_t rounds,
                                  size_t marker_interval) {
  StreamGeneratorOptions options;
  options.seed = seed;
  options.rounds = rounds;
  options.marker_interval = marker_interval;
  return options;
}

/// Counts what the generator hands its consumer and, on a traced run,
/// times the consumer so the generator's own time is the rest.
class CountingConsumer final : public EventConsumer {
 public:
  CountingConsumer(EventConsumer* inner, TraceTrack* track, Layer layer)
      : inner_(inner), track_(track), layer_(layer) {}

  Status Consume(Event&& event) override {
    if (IsGraphOp(event.type)) {
      ++graph_events;
    } else if (event.type == EventType::kMarker) {
      ++markers;
    }
    ++entries;
    if (track_ == nullptr) return inner_->Consume(std::move(event));
    const int64_t start = NowNs();
    Status st = inner_->Consume(std::move(event));
    const int64_t end = NowNs();
    track_->Leaf(layer_, "Consume", start, end, /*keep=*/false);
    consumer_ns += end - start;
    return st;
  }

  Status Finish() override {
    if (track_ == nullptr) return inner_->Finish();
    const int64_t start = NowNs();
    Status st = inner_->Finish();
    const int64_t end = NowNs();
    track_->Leaf(layer_, "Finish", start, end);
    consumer_ns += end - start;
    return st;
  }

  uint64_t graph_events = 0;
  uint64_t markers = 0;
  uint64_t entries = 0;
  int64_t consumer_ns = 0;

 private:
  EventConsumer* inner_;
  TraceTrack* track_;
  Layer layer_;
};

/// What one GenerateTo run produced.
struct Generated {
  GenerateSummary summary;
  uint64_t graph_events = 0;
  uint64_t markers = 0;
  uint64_t entries = 0;
  int64_t generate_ns = 0;
  int64_t consumer_ns = 0;

  double GeneratorNsPerEvent() const {
    return PerEvent(static_cast<double>(generate_ns - consumer_ns), entries);
  }
};

Result<Generated> Generate(GeneratorModel* model,
                           const StreamGeneratorOptions& options,
                           EventConsumer* consumer, TraceTrack* track,
                           Layer consumer_layer) {
  CountingConsumer counting(consumer, track, consumer_layer);
  const int64_t start = NowNs();
  Result<GenerateSummary> summary = Status::Internal("not run");
  {
    ScopedSpan span(track, Layer::kGenerator, "GenerateTo");
    summary = StreamGenerator(model, options).GenerateTo(counting);
  }
  if (!summary.ok()) return summary.status().WithContext("GenerateTo");
  Generated g;
  g.generate_ns = NowNs() - start;
  g.summary = *summary;
  g.graph_events = counting.graph_events;
  g.markers = counting.markers;
  g.entries = counting.entries;
  g.consumer_ns = counting.consumer_ns;
  return g;
}

enum class FileFormat { kV2, kCsv };

struct StreamFile {
  std::string path;
  FileFormat format = FileFormat::kV2;
  Generated generated;
  uint64_t bytes = 0;
};

/// Closes a FILE* on scope exit.
struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Result<StreamFile> WriteStream(GeneratorModel* model,
                               const StreamGeneratorOptions& options,
                               const std::string& path, FileFormat format,
                               TraceTrack* track) {
  StreamFile file;
  file.path = path;
  file.format = format;
  std::FILE* raw = std::fopen(path.c_str(), "wb");
  if (raw == nullptr) return Status::IoError("cannot create " + path);
  {
    FilePtr out(raw);
    std::unique_ptr<EventConsumer> writer;
    if (format == FileFormat::kV2) {
      writer = std::make_unique<V2WriterConsumer>(out.get());
    } else {
      writer = std::make_unique<PipelinedWriterConsumer>(out.get());
    }
    GT_ASSIGN_OR_RETURN(file.generated, Generate(model, options, writer.get(),
                                                 track, Layer::kStream));
    writer.reset();
    if (std::fflush(out.get()) != 0) {
      return Status::IoError("cannot write " + path);
    }
  }
  std::error_code ec;
  file.bytes = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat " + path);
  return file;
}

/// An independent pass over a stream file: decodes every entry and counts
/// graph events per lane with the replayer's own routing rule. It doubles
/// as the isolated decode measurement.
struct LaneCounts {
  std::vector<uint64_t> per_lane;
  uint64_t graph_events = 0;
  uint64_t entries = 0;
  int64_t decode_ns = 0;
};

Result<LaneCounts> CountLanes(const StreamFile& file, size_t lanes,
                              TraceTrack* track) {
  LaneCounts counts;
  counts.per_lane.assign(lanes, 0);
  auto tally = [&](const EventView& e) {
    ++counts.entries;
    if (IsGraphOp(e.type)) {
      ++counts.per_lane[ShardOfEvent(e.type, e.vertex, e.edge, lanes)];
      ++counts.graph_events;
    }
  };
  const int64_t start = NowNs();
  ScopedSpan span(track, Layer::kStream,
                  file.format == FileFormat::kV2 ? "V2StreamReader::Next"
                                                 : "ParseEventLineView");
  if (file.format == FileFormat::kV2) {
    V2StreamReader reader;
    GT_RETURN_NOT_OK(reader.Open(file.path));
    while (true) {
      GT_ASSIGN_OR_RETURN(const std::optional<EventView> next, reader.Next());
      if (!next.has_value()) break;
      tally(*next);
    }
  } else {
    BlockLineReader reader;
    GT_RETURN_NOT_OK(reader.Open(file.path));
    std::string scratch;
    while (true) {
      GT_ASSIGN_OR_RETURN(const std::optional<std::string_view> line,
                          reader.NextLine());
      if (!line.has_value()) break;
      Result<EventView> view = ParseEventLineView(*line, &scratch);
      if (!view.ok()) {
        if (view.status().IsNotFound()) continue;
        return view.status();
      }
      tally(*view);
    }
  }
  counts.decode_ns = NowNs() - start;
  return counts;
}

/// Generator, encoder and decoder metrics of a workload that writes a
/// stream file.
void SetStreamLayerMetrics(Run* run, const StreamFile& file,
                           const LaneCounts& counts) {
  const Generated& g = file.generated;
  run->SetLayer("generator.ns_per_event", g.GeneratorNsPerEvent());
  run->SetLayer("generator.events", static_cast<double>(g.entries));
  if (file.format == FileFormat::kV2) {
    run->SetLayer("stream.v2_encode_ns_per_event",
                  PerEvent(static_cast<double>(g.consumer_ns), g.entries));
    run->SetLayer("stream.v2_decode_ns_per_event",
                  PerEvent(static_cast<double>(counts.decode_ns),
                           counts.entries));
  } else {
    run->SetLayer("stream.csv_decode_ns_per_event",
                  PerEvent(static_cast<double>(counts.decode_ns),
                           counts.entries));
  }
  run->SetLayer("stream.file_bytes_per_event",
                PerEvent(static_cast<double>(file.bytes), counts.entries));
}

/// Quantile of a histogram in microseconds / milliseconds.
double Us(const LatencyHistogram& h, double q) {
  return h.ValueAtQuantileMicros(q);
}
double Ms(const LatencyHistogram& h, double q) {
  return h.ValueAtQuantileSeconds(q) * 1e3;
}

/// Barrier time of each marker: its visibility time minus the latest sink
/// return before it, over all lanes.
void RecordBarriers(const ReplayStats& aggregate,
                    const std::vector<const std::vector<int64_t>*>& returns,
                    LatencyHistogram* barrier) {
  for (const MarkerRecord& marker : aggregate.marker_log) {
    const int64_t at = marker.time.nanos();
    int64_t last = 0;
    for (const std::vector<int64_t>* lane : returns) {
      auto it = std::upper_bound(lane->begin(), lane->end(), at);
      if (it != lane->begin()) last = std::max(last, *std::prev(it));
    }
    if (last != 0) barrier->RecordNanos(at - last);
  }
}

// --- paced-graph -------------------------------------------------------------

/// In-process store sink: applies every delivered event to a Graph and
/// times it from when it was due at `rate_eps`, due = first delivery +
/// seq / rate (meaningful on paced passes only).
class GraphSink final : public EventSink {
 public:
  GraphSink(double rate_eps, TraceTrack* track)
      : interval_ns_(1e9 / rate_eps), track_(track) {}

  Status Deliver(const Event& event) override {
    return DeliverSequenced(event, delivered_);
  }

  Status DeliverSequenced(const Event& event, uint64_t seq) override {
    const int64_t enter = NowNs();
    const int64_t offset =
        std::llround(static_cast<double>(seq) * interval_ns_);
    if (delivered_ == 0) first_due_ns_ = enter - offset;
    lateness_.RecordNanos(enter - (first_due_ns_ + offset));
    if (!graph_.Apply(event).ok()) ++rejected_;
    ++delivered_;
    if (track_ != nullptr) {
      const int64_t exit = NowNs();
      if (last_return_ns_ != 0) {
        track_->Leaf(Layer::kReplayer, "lane", last_return_ns_, enter, false);
        lane_ns_ += enter - last_return_ns_;
      }
      track_->Leaf(Layer::kGraph, "Graph::Apply", enter, exit, false);
      apply_.RecordNanos(exit - enter);
      returns_.push_back(exit);
      last_return_ns_ = exit;
    }
    return Status::OK();
  }

  const Graph& graph() const { return graph_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t rejected() const { return rejected_; }
  int64_t first_due_ns() const { return first_due_ns_; }
  const LatencyHistogram& lateness() const { return lateness_; }
  const LatencyHistogram& apply() const { return apply_; }
  const std::vector<int64_t>& returns() const { return returns_; }
  int64_t lane_ns() const { return lane_ns_; }

 private:
  double interval_ns_;
  TraceTrack* track_;
  Graph graph_;
  uint64_t delivered_ = 0;
  uint64_t rejected_ = 0;
  int64_t first_due_ns_ = 0;
  LatencyHistogram lateness_;
  LatencyHistogram apply_;
  std::vector<int64_t> returns_;
  int64_t last_return_ns_ = 0;
  int64_t lane_ns_ = 0;
};

Result<WorkloadOutcome> RunPacedGraph(const RunConfig& config) {
  Run run(config);
  WorkloadOutcome* out = run.out();
  // About 180k graph events: a paced pass lasts 0.72 s.
  const size_t rounds = config.smoke ? 2500 : 180000;
  const size_t marker_interval = config.smoke ? 100 : 1000;
  StreamFile input;
  LaneCounts counts;
  GT_RETURN_NOT_OK(run.Setup([&]() -> Status {
    SocialNetworkModel model;
    GT_ASSIGN_OR_RETURN(
        input, WriteStream(&model, GenOptions(config.seed, rounds,
                                              marker_interval),
                           config.work_dir + "/paced-graph.gts2",
                           FileFormat::kV2, run.main()));
    GT_ASSIGN_OR_RETURN(counts, CountLanes(input, 1, run.main()));
    return Status::OK();
  }));
  const Generated& gen = input.generated;
  Expect(out, counts.graph_events == gen.graph_events,
         Mismatch("decoded graph events", counts.graph_events,
                  gen.graph_events));

  // Open loop first: the stream is replayed at the offered rate for about
  // 30% of the measured time (6 passes and ~1,080 markers in 15 s, so the
  // marker p99 has 10 beyond it); the pass count, not a deadline, sets its
  // length. Then the same stream goes into the same sink unthrottled until
  // the measured time is up: the path's capacity, which moved 12-20%
  // between runs and so gets the larger share.
  const size_t paced_passes =
      config.smoke ? 1
                   : std::max<size_t>(
                         1, static_cast<size_t>(
                                0.3 * config.seconds * kPacedRateEps /
                                static_cast<double>(gen.graph_events)));
  TraceTrack* lane_track = run.Track("lane0");
  TraceTrack* marker_track = run.Track("markers", /*reconcile=*/false);
  std::vector<double> paced_rates, visible_ms;
  LatencyHistogram lateness, apply, markers, barriers;
  std::vector<double> bin_ratios;
  uint64_t delivered_total = 0, rejected_total = 0;
  uint64_t capacity_events = 0;
  double capacity_s = 0.0;
  int64_t capacity_lane_ns = 0;

  auto replay_pass = [&](const std::string& at, bool paced) -> bool {
    auto sink = std::make_unique<GraphSink>(kPacedRateEps, lane_track);
    ShardedReplayerOptions options;
    options.shards = 1;
    options.total_rate_eps = paced ? kPacedRateEps : kUnthrottledEps;
    ShardedReplayer replayer(options);
    Result<ShardedReplayStats> stats = Status::Internal("not run");
    {
      ScopedSpan span(run.main(), Layer::kReplayer, "ReplayFile");
      stats = replayer.ReplayFile(input.path, {sink.get()});
    }
    {
      ScopedSpan check(run.main(), Layer::kBench, "check");
      out->attempted += gen.graph_events;
      if (!stats.ok()) {
        Fail(out, gen.graph_events, at + stats.status().ToString());
        return false;
      }
      const ReplayStats& agg = stats->aggregate;
      if (sink->delivered() != gen.graph_events) {
        Fail(out,
             gen.graph_events - std::min(sink->delivered(), gen.graph_events),
             at + Mismatch("delivered", sink->delivered(), gen.graph_events));
      }
      if (sink->rejected() > 0) {
        Fail(out, sink->rejected(),
             at + std::to_string(sink->rejected()) + " rejected applies");
      }
      const uint64_t marker_records = agg.marker_log.size();
      if (marker_records != gen.markers) {
        Fail(out, gen.markers - std::min(marker_records, gen.markers),
             at + Mismatch("marker log entries", marker_records, gen.markers));
      }
      Expect(out, sink->graph().num_vertices() == gen.summary.final_vertices,
             at + Mismatch("graph vertices", sink->graph().num_vertices(),
                           gen.summary.final_vertices));
      Expect(out, sink->graph().num_edges() == gen.summary.final_edges,
             at + Mismatch("graph edges", sink->graph().num_edges(),
                           gen.summary.final_edges));
      apply.Merge(sink->apply());
      delivered_total += sink->delivered();
      rejected_total += sink->rejected();
      if (run.traced()) RecordBarriers(agg, {&sink->returns()}, &barriers);
      if (!paced) {
        capacity_events += agg.events_delivered;
        capacity_s += agg.Elapsed().seconds();
        capacity_lane_ns += sink->lane_ns();
      } else {
        paced_rates.push_back(agg.AchievedRateEps());
        // Time to result of the open loop: from the first event's due time
        // until the end-of-stream marker is visible in the store. It
        // exceeds the stream's length at the offered rate only by the
        // final backlog.
        if (!agg.marker_log.empty()) {
          visible_ms.push_back(Millis(agg.marker_log.back().time.nanos() -
                                      sink->first_due_ns()));
        }
        lateness.Merge(sink->lateness());
        // A marker is visible once the barrier behind the event before it
        // passed; it was due with that event.
        const double interval_ns = 1e9 / kPacedRateEps;
        for (const MarkerRecord& m : agg.marker_log) {
          const uint64_t before =
              m.events_before > 0 ? m.events_before - 1 : 0;
          const int64_t due = sink->first_due_ns() +
                              std::llround(static_cast<double>(before) *
                                           interval_ns);
          markers.RecordNanos(m.time.nanos() - due);
          if (marker_track != nullptr) {
            marker_track->Leaf(Layer::kReplayer, m.label, due,
                               m.time.nanos());
          }
        }
        // Fig. 3a band: achieved rate per 100 ms bin, first and last bin
        // (ramp-up, partial) dropped.
        const double bin_s = options.stats_bin.seconds();
        for (size_t i = 1; i + 1 < agg.rate_series.size(); ++i) {
          bin_ratios.push_back(static_cast<double>(agg.rate_series[i].events) /
                               (bin_s * kPacedRateEps));
        }
      }
    }
    ScopedSpan teardown(run.main(), Layer::kGraph, "~Graph");
    sink.reset();
    return true;
  };

  run.BeginMeasure();
  bool ok = true;
  for (size_t pass = 0; ok && pass < paced_passes; ++pass) {
    ok = replay_pass("paced pass " + std::to_string(pass) + ": ", true);
  }
  for (size_t pass = 0; ok && run.MorePasses(pass); ++pass) {
    ok = replay_pass("unthrottled pass " + std::to_string(pass) + ": ", false);
  }
  run.EndMeasure();

  run.SetE2e("throughput", capacity_s > 0.0
                               ? static_cast<double>(capacity_events) / capacity_s
                               : 0.0);
  run.SetE2e("latency_ms", Median(visible_ms));

  SetStreamLayerMetrics(&run, input, counts);
  run.SetLayer("replayer.lane_self_ns_per_event",
               PerEvent(static_cast<double>(capacity_lane_ns), capacity_events));
  run.SetLayer("replayer.lane_skew", 1.0);
  run.SetLayer("replayer.barrier_us_p50", Us(barriers, 0.5));
  run.SetLayer("replayer.barrier_us_p99", Us(barriers, 0.99));
  run.SetLayer("replayer.lateness_mean_us", lateness.mean_nanos() / 1e3);
  run.SetLayer("replayer.lateness_p50_us", Us(lateness, 0.5));
  run.SetLayer("replayer.lateness_p99_us", Us(lateness, 0.99));
  run.SetLayer("replayer.marker_p50_ms", Ms(markers, 0.5));
  run.SetLayer("replayer.marker_p99_ms", Ms(markers, 0.99));
  run.SetLayer("replayer.bin_rate_p05_ratio", Percentile(bin_ratios, 0.05));
  run.SetLayer("replayer.achieved_ratio", Median(paced_rates) / kPacedRateEps);
  run.SetLayer("graph.apply_ns_per_event", apply.mean_nanos());
  run.SetLayer("graph.apply_max_us",
               static_cast<double>(apply.max_nanos()) / 1e3);
  run.SetLayer("graph.rejected", static_cast<double>(rejected_total));
  std::error_code ec;
  std::filesystem::remove(input.path, ec);
  return run.Finish();
}

// --- saturate-v2 / saturate-csv ----------------------------------------------

/// Bench-owned transport: forwards serialized batches to a PipeSink on
/// /dev/null and checksums the wire bytes. On a traced run it also times
/// the sink call and the lane's own time between two calls.
class WireSink final : public EventSink {
 public:
  WireSink(std::FILE* devnull, bool v2_wire, TraceTrack* track)
      : inner_(devnull), track_(track) {
    if (v2_wire) inner_.EnableV2Wire();
  }

  Status Deliver(const Event& event) override {
    ++events_;
    return inner_.Deliver(event);
  }
  bool SupportsSerialized() const override { return true; }
  Result<WireFormat> NegotiateWireFormat(WireFormat preferred) override {
    return inner_.NegotiateWireFormat(preferred);
  }
  Status DeliverSerialized(std::string_view lines, size_t count) override {
    const int64_t enter = track_ != nullptr ? NowNs() : 0;
    crc_ = Crc32cUpdate(crc_, lines);
    events_ += count;
    bytes_ += lines.size();
    ++batches_;
    if (track_ == nullptr) return inner_.DeliverSerialized(lines, count);
    const int64_t sent = NowNs();
    Status st = inner_.DeliverSerialized(lines, count);
    const int64_t exit = NowNs();
    if (last_return_ns_ != 0) {
      track_->Leaf(Layer::kReplayer, "lane", last_return_ns_, enter, false);
      lane_ns_ += enter - last_return_ns_;
    }
    track_->Leaf(Layer::kBench, "crc", enter, sent, false);
    track_->Leaf(Layer::kReplayer, "DeliverSerialized", sent, exit);
    deliver_ns_ += exit - sent;
    returns_.push_back(exit);
    last_return_ns_ = exit;
    return st;
  }
  Status Finish() override { return inner_.Finish(); }

  uint32_t crc() const { return crc_; }
  uint64_t events() const { return events_; }
  uint64_t bytes() const { return bytes_; }
  uint64_t batches() const { return batches_; }
  int64_t deliver_ns() const { return deliver_ns_; }
  int64_t lane_ns() const { return lane_ns_; }
  const std::vector<int64_t>& returns() const { return returns_; }

 private:
  PipeSink inner_;
  TraceTrack* track_;
  uint32_t crc_ = 0;
  uint64_t events_ = 0;
  uint64_t bytes_ = 0;
  uint64_t batches_ = 0;
  int64_t deliver_ns_ = 0;
  int64_t lane_ns_ = 0;
  std::vector<int64_t> returns_;
  int64_t last_return_ns_ = 0;
};

/// Snapshots a telemetry hub every 500 ms from its own thread, as
/// gt_replay --telemetry-out does, and times each RunTelemetry::Snapshot.
class SnapshotThread {
 public:
  SnapshotThread(RunTelemetry* hub, TraceTrack* track)
      : hub_(hub), track_(track), thread_([this] { Loop(); }) {}
  ~SnapshotThread() { Stop(); }

  SnapshotThread(const SnapshotThread&) = delete;
  SnapshotThread& operator=(const SnapshotThread&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Valid after Stop().
  const LatencyHistogram& snapshot_times() const { return times_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, kSnapshotPeriod, [this] { return stop_; })) {
      const int64_t start = NowNs();
      hub_->Snapshot();
      const int64_t end = NowNs();
      times_.RecordNanos(end - start);
      if (track_ != nullptr) {
        track_->Leaf(Layer::kTelemetry, "RunTelemetry::Snapshot", start, end);
      }
    }
  }

  RunTelemetry* hub_;
  TraceTrack* track_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  LatencyHistogram times_;
  std::thread thread_;
};

Result<WorkloadOutcome> RunSaturate(const RunConfig& config,
                                    FileFormat format) {
  Run run(config);
  WorkloadOutcome* out = run.out();
  const bool v2 = format == FileFormat::kV2;
  const size_t marker_interval = config.smoke ? 1000 : 10000;
  StreamFile input;
  LaneCounts counts;
  GT_RETURN_NOT_OK(run.Setup([&]() -> Status {
    if (v2) {
      SocialNetworkModel model;
      GT_ASSIGN_OR_RETURN(
          input,
          WriteStream(&model,
                      GenOptions(config.seed, config.smoke ? 5000 : 500000,
                                 marker_interval),
                      config.work_dir + "/saturate-v2.gts2", format,
                      run.main()));
    } else {
      // Payload-heavy mix: state updates and removals on top of inserts.
      const size_t rounds = config.smoke ? 6000 : 600000;
      EventMixModelOptions mix;
      mix.ba = {std::max<size_t>(rounds / 20, 100),
                std::max<size_t>(rounds / 400, 10), 5};
      EventMixModel model(mix);
      GT_ASSIGN_OR_RETURN(
          input, WriteStream(&model,
                             GenOptions(config.seed, rounds, marker_interval),
                             config.work_dir + "/saturate-csv.gts", format,
                             run.main()));
    }
    GT_ASSIGN_OR_RETURN(counts, CountLanes(input, kSaturateLanes, run.main()));
    return Status::OK();
  }));
  const Generated& gen = input.generated;
  Expect(out, counts.graph_events == gen.graph_events,
         Mismatch("decoded graph events", counts.graph_events,
                  gen.graph_events));

  std::vector<FilePtr> devnull;
  for (size_t s = 0; s < kSaturateLanes; ++s) {
    std::FILE* f = std::fopen("/dev/null", "w");
    if (f == nullptr) return Status::IoError("cannot open /dev/null");
    devnull.emplace_back(f);
  }
  std::vector<TraceTrack*> lane_tracks;
  for (size_t s = 0; s < kSaturateLanes; ++s) {
    lane_tracks.push_back(run.Track("lane" + std::to_string(s)));
  }
  // saturate-csv replays with a telemetry hub attached, sampled 1/64.
  std::unique_ptr<RunTelemetry> hub;
  if (!v2) {
    RunTelemetryOptions topt;
    topt.shards = kSaturateLanes;
    topt.sample_every = 64;
    hub = std::make_unique<RunTelemetry>(topt);
  }

  std::vector<double> pass_ms;
  double measured_s = 0.0;
  std::vector<uint32_t> lane_crc(kSaturateLanes, 0);
  uint64_t delivered = 0, wire_bytes = 0, batches = 0;
  int64_t deliver_ns = 0, lane_ns = 0;
  std::vector<uint64_t> lane_events(kSaturateLanes, 0);
  LatencyHistogram barriers;

  auto replay_pass = [&](const std::string& at, bool measured) -> bool {
    std::vector<std::unique_ptr<WireSink>> sinks;
    std::vector<EventSink*> sink_ptrs;
    for (size_t s = 0; s < kSaturateLanes; ++s) {
      sinks.push_back(
          std::make_unique<WireSink>(devnull[s].get(), v2, lane_tracks[s]));
      sink_ptrs.push_back(sinks.back().get());
    }
    ShardedReplayerOptions options;
    options.shards = kSaturateLanes;
    options.total_rate_eps = kUnthrottledEps;
    options.wire_format = v2 ? WireFormat::kV2 : WireFormat::kCsv;
    options.telemetry = hub.get();
    ShardedReplayer replayer(options);
    Result<ShardedReplayStats> stats = Status::Internal("not run");
    {
      ScopedSpan span(run.main(), Layer::kReplayer, "ReplayFile");
      stats = replayer.ReplayFile(input.path, sink_ptrs);
    }
    ScopedSpan check(run.main(), Layer::kBench, "check");
    out->attempted += gen.graph_events;
    if (!stats.ok()) {
      Fail(out, gen.graph_events, at + stats.status().ToString());
      return false;
    }
    const ReplayStats& agg = stats->aggregate;
    Expect(out, agg.marker_log.size() == gen.markers,
           at + Mismatch("marker log entries", agg.marker_log.size(),
                         gen.markers));
    for (size_t s = 0; s < kSaturateLanes; ++s) {
      const uint64_t expected = counts.per_lane[s];
      const uint64_t got = stats->per_shard[s].events_delivered;
      if (got != expected || sinks[s]->events() != expected) {
        Fail(out, expected > got ? expected - got : 1,
             at + Mismatch("lane " + std::to_string(s) + " delivered", got,
                           expected));
      }
      if (!measured) {
        lane_crc[s] = sinks[s]->crc();
      } else {
        Expect(out, sinks[s]->crc() == lane_crc[s],
               at + "lane " + std::to_string(s) +
                   " wire CRC-32C differs from the warm-up pass");
      }
    }
    if (!measured) return true;
    const double elapsed = agg.Elapsed().seconds();
    measured_s += elapsed;
    pass_ms.push_back(elapsed * 1e3);
    delivered += agg.events_delivered;
    std::vector<const std::vector<int64_t>*> returns;
    for (size_t s = 0; s < kSaturateLanes; ++s) {
      wire_bytes += sinks[s]->bytes();
      batches += sinks[s]->batches();
      deliver_ns += sinks[s]->deliver_ns();
      lane_ns += sinks[s]->lane_ns();
      lane_events[s] += sinks[s]->events();
      returns.push_back(&sinks[s]->returns());
    }
    if (run.traced()) RecordBarriers(agg, returns, &barriers);
    return true;
  };

  // One warm-up pass fills the page cache and the allocator, and fixes
  // the reference CRC of every lane.
  run.BeginWarmup();
  bool ok = replay_pass("warm-up: ", false);
  run.BeginMeasure();
  std::optional<SnapshotThread> snapshots;
  if (hub != nullptr) snapshots.emplace(hub.get(), run.Track("telemetry"));
  for (size_t pass = 0; ok && run.MorePasses(pass); ++pass) {
    ok = replay_pass("pass " + std::to_string(pass) + ": ", true);
  }
  if (snapshots.has_value()) snapshots->Stop();
  run.EndMeasure();

  run.SetE2e("throughput", measured_s > 0.0
                               ? static_cast<double>(delivered) / measured_s
                               : 0.0);
  run.SetE2e("latency_ms", Median(pass_ms));

  if (run.traced()) {
    SetStreamLayerMetrics(&run, input, counts);
    if (!v2) {
      // Isolated AppendEventLine pass over the same stream.
      GT_ASSIGN_OR_RETURN(const std::vector<Event> events,
                          ReadStreamFile(input.path));
      std::string buf;
      const int64_t start = NowNs();
      {
        ScopedSpan span(run.main(), Layer::kStream, "AppendEventLine");
        for (const Event& e : events) {
          if (buf.size() > (1u << 20)) buf.clear();
          AppendEventLine(e, &buf);
        }
      }
      run.SetLayer("stream.csv_encode_ns_per_event",
                   PerEvent(static_cast<double>(NowNs() - start),
                            events.size()));
    }
    const double mean_lane =
        static_cast<double>(delivered) / static_cast<double>(kSaturateLanes);
    run.SetLayer("replayer.deliver_ns_per_event",
                 PerEvent(static_cast<double>(deliver_ns), delivered));
    run.SetLayer("replayer.lane_self_ns_per_event",
                 PerEvent(static_cast<double>(lane_ns), delivered));
    run.SetLayer("replayer.wire_bytes_per_event",
                 PerEvent(static_cast<double>(wire_bytes), delivered));
    run.SetLayer("replayer.batches",
                 PerEvent(static_cast<double>(batches), pass_ms.size()));
    run.SetLayer("replayer.lane_skew",
                 mean_lane > 0.0
                     ? static_cast<double>(*std::max_element(
                           lane_events.begin(), lane_events.end())) /
                           mean_lane
                     : 0.0);
    run.SetLayer("replayer.barrier_us_p50", Us(barriers, 0.5));
    run.SetLayer("replayer.barrier_us_p99", Us(barriers, 0.99));
    if (hub != nullptr) {
      static constexpr std::pair<ReplayStage, const char*> kStages[] = {
          {ReplayStage::kRead, "telemetry.stage_read_p50_ns"},
          {ReplayStage::kThrottle, "telemetry.stage_throttle_p50_ns"},
          {ReplayStage::kSerialize, "telemetry.stage_serialize_p50_ns"},
          {ReplayStage::kDeliver, "telemetry.stage_deliver_p50_ns"},
          {ReplayStage::kAck, "telemetry.stage_ack_p50_ns"},
      };
      const auto stages = hub->MergedStageHistograms();
      for (const auto& [stage, name] : kStages) {
        run.SetLayer(name, static_cast<double>(
                               stages[static_cast<size_t>(stage)]
                                   .ValueAtQuantileNanos(0.5)));
      }
      run.SetLayer("telemetry.snapshot_us",
                   Us(snapshots->snapshot_times(), 0.5));
    }
  }
  std::error_code ec;
  std::filesystem::remove(input.path, ec);
  return run.Finish();
}

// --- snapshot-compute ------------------------------------------------------

/// One snapshot round: CSR build plus every kernel, each timed.
struct KernelRound {
  CsrGraph csr;
  PageRankResult pagerank;
  ComponentsResult wcc;
  uint64_t triangles = 0;
  GraphStatistics stats;
  /// csr_build, pagerank, wcc, triangles, statistics.
  std::array<int64_t, 5> ns{};
};

constexpr std::array<const char*, 5> kKernelNames = {
    "csr_build", "pagerank", "wcc", "triangles", "statistics"};

KernelRound RunKernels(const Graph& graph, size_t threads, TraceTrack* track) {
  KernelRound r;
  auto timed = [&](size_t k, const auto& fn) {
    ScopedSpan span(track, Layer::kAlgorithms, kKernelNames[k]);
    const int64_t start = NowNs();
    fn();
    r.ns[k] = NowNs() - start;
  };
  timed(0, [&] { r.csr = CsrGraph::FromGraph(graph, threads); });
  timed(1, [&] {
    PageRankOptions options;
    options.threads = threads;
    r.pagerank = PageRank(r.csr, options);
  });
  timed(2, [&] { r.wcc = WeaklyConnectedComponents(r.csr, {threads}); });
  timed(3, [&] { r.triangles = CountTriangles(r.csr, threads); });
  timed(4, [&] { r.stats = ComputeGraphStatistics(r.csr, threads); });
  return r;
}

bool SameCsr(const CsrGraph& a, const CsrGraph& b) {
  if (a.ids() != b.ids() || a.out_offsets() != b.out_offsets() ||
      a.in_offsets() != b.in_offsets()) {
    return false;
  }
  for (CsrGraph::Index v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.OutNeighbors(v), bo = b.OutNeighbors(v);
    const auto ai = a.InNeighbors(v), bi = b.InNeighbors(v);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) ||
        !std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) {
      return false;
    }
  }
  return true;
}

/// Names of the results of `got` that are not bit-identical to `ref`.
std::vector<std::string> Differences(const KernelRound& got,
                                     const KernelRound& ref) {
  std::vector<std::string> diff;
  if (!SameCsr(got.csr, ref.csr)) diff.push_back("csr");
  if (got.pagerank.ranks != ref.pagerank.ranks ||
      got.pagerank.iterations != ref.pagerank.iterations) {
    diff.push_back("pagerank");
  }
  if (got.wcc.component != ref.wcc.component ||
      got.wcc.sizes != ref.wcc.sizes) {
    diff.push_back("wcc");
  }
  if (got.triangles != ref.triangles) diff.push_back("triangles");
  const GraphStatistics& a = got.stats;
  const GraphStatistics& b = ref.stats;
  if (a.num_vertices != b.num_vertices || a.num_edges != b.num_edges ||
      a.density != b.density || a.mean_out_degree != b.mean_out_degree ||
      a.max_out_degree != b.max_out_degree ||
      a.max_in_degree != b.max_in_degree ||
      a.isolated_vertices != b.isolated_vertices ||
      a.out_degree_gini != b.out_degree_gini) {
    diff.push_back("statistics");
  }
  return diff;
}

Result<WorkloadOutcome> RunSnapshotCompute(const RunConfig& config) {
  Run run(config);
  WorkloadOutcome* out = run.out();
  const size_t rounds = config.smoke ? 5000 : 500000;
  std::unique_ptr<Graph> graph;
  Generated gen;
  uint64_t rejected = 0;
  KernelRound reference;
  GT_RETURN_NOT_OK(run.Setup([&]() -> Status {
    graph.reset();
    graph = std::make_unique<Graph>();
    rejected = 0;
    // Loaded straight from the generator: the consumer's time is the
    // Graph's load time.
    CallbackConsumer load([&](Event&& e) {
      if (IsGraphOp(e.type) && !graph->Apply(e).ok()) ++rejected;
      return Status::OK();
    });
    SocialNetworkModel model;
    GT_ASSIGN_OR_RETURN(
        gen, Generate(&model, GenOptions(config.seed, rounds, 0), &load,
                      run.main(), Layer::kGraph));
    reference = RunKernels(*graph, 1, run.main());
    return Status::OK();
  }));
  out->attempted += gen.graph_events;
  if (rejected > 0) {
    Fail(out, rejected, std::to_string(rejected) + " rejected applies");
  }
  Expect(out, graph->num_vertices() == gen.summary.final_vertices,
         Mismatch("graph vertices", graph->num_vertices(),
                  gen.summary.final_vertices));
  Expect(out, graph->num_edges() == gen.summary.final_edges,
         Mismatch("graph edges", graph->num_edges(), gen.summary.final_edges));

  std::vector<double> round_ms;
  double kernel_edges = 0.0, kernel_s = 0.0;
  std::array<std::vector<double>, 5> kernel_ms;
  auto check_round = [&](const KernelRound& r, const std::string& at) {
    ScopedSpan check(run.main(), Layer::kBench, "check");
    out->attempted += kKernelNames.size();
    const std::vector<std::string> diff = Differences(r, reference);
    for (const std::string& d : diff) {
      Fail(out, 1, at + d + " differs from the 1-thread reference");
    }
  };
  // Runs, checks and frees one round; freeing the CSR and the result
  // arrays is the algorithms layer's time too.
  auto kernel_round = [&](const std::string& at) {
    auto r = std::make_unique<KernelRound>(
        RunKernels(*graph, kComputeThreads, run.main()));
    check_round(*r, at);
    const std::array<int64_t, 5> ns = r->ns;
    const size_t edges = r->csr.num_edges();
    ScopedSpan teardown(run.main(), Layer::kAlgorithms, "free results");
    r.reset();
    return std::pair{ns, edges};
  };
  // Warm-up round: first-touch page faults and lazy pool start-up.
  run.BeginWarmup();
  kernel_round("warm-up: ");
  run.BeginMeasure();
  for (size_t i = 0; run.MorePasses(i); ++i) {
    const auto [ns, edges] = kernel_round("round " + std::to_string(i) + ": ");
    int64_t total_ns = 0;
    for (size_t k = 0; k < ns.size(); ++k) {
      total_ns += ns[k];
      kernel_ms[k].push_back(Millis(ns[k]));
    }
    round_ms.push_back(Millis(total_ns));
    kernel_edges += static_cast<double>(edges);
    kernel_s += Seconds(total_ns);
  }
  run.EndMeasure();

  run.SetE2e("throughput", kernel_s > 0.0 ? kernel_edges / kernel_s : 0.0);
  run.SetE2e("latency_ms", Median(round_ms));

  if (run.traced()) {
    run.SetLayer("generator.ns_per_event", gen.GeneratorNsPerEvent());
    run.SetLayer("generator.events", static_cast<double>(gen.entries));
    run.SetLayer("graph.load_ns_per_event",
                 PerEvent(static_cast<double>(gen.consumer_ns),
                          gen.graph_events));
    run.SetLayer("graph.rejected", static_cast<double>(rejected));
    std::array<std::vector<double>, 5> t1_ms;
    const size_t t1_rounds = config.smoke ? 1 : kSingleThreadRounds;
    for (size_t i = 0; i < t1_rounds; ++i) {
      const KernelRound r = RunKernels(*graph, 1, run.main());
      for (size_t k = 0; k < t1_ms.size(); ++k) {
        t1_ms[k].push_back(Millis(r.ns[k]));
      }
    }
    std::printf("kernel times [ms], quartiles q1 / median / q3 over rounds:\n");
    for (size_t k = 0; k < kKernelNames.size(); ++k) {
      const std::string name = std::string("algorithms.") + kKernelNames[k];
      run.SetLayer(name + "_ms", Median(kernel_ms[k]));
      run.SetLayer(name + "_t1_ms", Median(t1_ms[k]));
      const Quartiles t2 = Quartiles::Of(kernel_ms[k]);
      const Quartiles t1 = Quartiles::Of(t1_ms[k]);
      std::printf("  %-11s 1 thread %8.3f / %8.3f / %8.3f (n=%zu)   "
                  "%zu threads %8.3f / %8.3f / %8.3f (n=%zu)\n",
                  kKernelNames[k], t1.q1, t1.median, t1.q3, t1_ms[k].size(),
                  kComputeThreads, t2.q1, t2.median, t2.q3,
                  kernel_ms[k].size());
    }
  }
  return run.Finish();
}

// --- suite-small -------------------------------------------------------------

std::vector<SuiteEntry> SuiteConnectors() {
  // The settings of bench/suite_comparison.
  std::vector<SuiteEntry> connectors;
  connectors.push_back(
      {"offline", [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         OfflineConnectorOptions options;
         options.epoch = Duration::FromSeconds(2.0);
         return std::make_unique<OfflineSnapshotConnector>(sim, options);
       }});
  connectors.push_back(
      {"online", [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         ChronoLiteOptions options;
         options.rank.push_threshold = 0.02;
         return std::make_unique<OnlineConnector>(sim, options);
       }});
  connectors.push_back(
      {"hybrid", [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         HybridConnectorOptions options;
         options.epoch = Duration::FromSeconds(2.0);
         return std::make_unique<HybridConnector>(sim, options);
       }});
  return connectors;
}

bool SameScore(const SuiteCaseScore& a, const SuiteCaseScore& b) {
  return a.workload == b.workload && a.connector == b.connector &&
         a.graph_events == b.graph_events &&
         a.offered_rate_eps == b.offered_rate_eps &&
         a.applied_rate_eps == b.applied_rate_eps &&
         a.drained_s == b.drained_s && a.drained == b.drained &&
         a.watermark_p50_s == b.watermark_p50_s &&
         a.watermark_p99_s == b.watermark_p99_s &&
         a.mean_rank_error == b.mean_rank_error &&
         a.final_rank_error == b.final_rank_error &&
         a.mean_result_age_s == b.mean_result_age_s;
}

Result<WorkloadOutcome> RunSuiteSmall(const RunConfig& config) {
  Run run(config);
  WorkloadOutcome* out = run.out();
  std::vector<SuiteWorkload> workloads;
  int64_t gen_ns = 0;
  GT_RETURN_NOT_OK(run.Setup([&]() -> Status {
    ScopedSpan span(run.main(), Layer::kSuite, "StandardWorkloads");
    const int64_t start = NowNs();
    workloads = StandardWorkloads(
        config.smoke ? SuiteSize::kTiny : SuiteSize::kSmall, config.seed);
    gen_ns = NowNs() - start;
    for (const SuiteWorkload& w : workloads) {
      if (w.events.empty()) {
        return Status::Internal("workload generation failed: " + w.name);
      }
    }
    return Status::OK();
  }));
  const std::vector<SuiteEntry> connectors = SuiteConnectors();
  SuiteCaseOptions options;
  options.error_interval = Duration::FromSeconds(5.0);
  options.max_duration = Duration::FromSeconds(300.0);

  std::vector<SuiteCaseScore> warmup;
  std::vector<double> pass_ms;
  uint64_t measured_events = 0;
  std::map<std::string, std::vector<double>> connector_ms;
  auto suite_pass = [&](const std::string& at, bool measured) {
    std::map<std::string, double> case_ms;
    uint64_t events = 0;
    size_t index = 0;
    const int64_t start = NowNs();
    for (const SuiteWorkload& w : workloads) {
      for (const SuiteEntry& c : connectors) {
        const std::string name = w.name + "/" + c.name;
        out->attempted += 1;
        const int64_t case_start = NowNs();
        Result<SuiteCaseScore> score = Status::Internal("not run");
        {
          ScopedSpan span(run.main(), Layer::kSuite, name);
          score = RunSuiteCase(w, c.factory, options);
        }
        case_ms[c.name] += Millis(NowNs() - case_start);
        ScopedSpan check(run.main(), Layer::kBench, "check");
        if (!score.ok()) {
          Fail(out, 1, at + name + ": " + score.status().ToString());
          continue;
        }
        events += score->graph_events;
        Expect(out, score->drained, at + name + ": not drained");
        if (!measured) {
          warmup.push_back(*score);
        } else {
          Expect(out,
                 index < warmup.size() && SameScore(*score, warmup[index]),
                 at + name + ": scores differ from the warm-up pass");
        }
        ++index;
      }
    }
    if (!measured) return;
    measured_events += events;
    pass_ms.push_back(Millis(NowNs() - start));
    for (const auto& [name, ms] : case_ms) connector_ms[name].push_back(ms);
  };

  // The warm-up pass also fixes the reference scores.
  run.BeginWarmup();
  suite_pass("warm-up: ", false);
  run.BeginMeasure();
  for (size_t pass = 0; run.MorePasses(pass); ++pass) {
    suite_pass("pass " + std::to_string(pass) + ": ", true);
  }
  run.EndMeasure();

  double measured_ms = 0.0;
  for (const double ms : pass_ms) measured_ms += ms;
  run.SetE2e("throughput", measured_ms > 0.0
                               ? static_cast<double>(measured_events) /
                                     (measured_ms / 1e3)
                               : 0.0);
  run.SetE2e("latency_ms", Median(pass_ms));
  run.SetLayer("suite.workload_gen_ms", Millis(gen_ns));
  for (const auto& [name, ms] : connector_ms) {
    run.SetLayer("suite.case_ms." + name, Median(ms));
  }
  return run.Finish();
}

}  // namespace

Result<WorkloadOutcome> RunWorkload(const RunConfig& config) {
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    return Status::IoError("cannot create work directory " + config.work_dir);
  }
  if (config.workload == "paced-graph") return RunPacedGraph(config);
  if (config.workload == "saturate-v2") {
    return RunSaturate(config, FileFormat::kV2);
  }
  if (config.workload == "saturate-csv") {
    return RunSaturate(config, FileFormat::kCsv);
  }
  if (config.workload == "snapshot-compute") return RunSnapshotCompute(config);
  if (config.workload == "suite-small") return RunSuiteSmall(config);
  return Status::InvalidArgument("unknown workload \"" + config.workload +
                                 "\"");
}

}  // namespace graphtides::e2e
