// Figure 3a reproduction: throughput of the Graph Stream Replayer for given
// target rates, pipe vs TCP transport.
//
// Paper setup (Table 2): a single machine; the replayer streams a generated
// social-network workload either over a pipe (STDOUT -> STDIN of a
// measurement process) or a local TCP socket. For each target rate the
// paper reports the median achieved throughput with a band from the 5th
// percentile to the maximum.
//
// Here the pipe transport writes CSV lines through a FILE* pipe buffer to
// /dev/null-equivalent (a counting consumer), and the TCP transport streams
// over a loopback socket to an in-process line server — both measure the
// same code paths (serialization + transport write + pacing).
//
// Shard sweep: the second section measures unthrottled ShardedReplayer
// throughput at 1/2/4/8 lanes.
//
// File-replay sweep: the third section replays the same workload from disk
// through ReplayFile, once from the CSV encoding and once from the
// gt-stream-v2 binary encoding (mmap reader), at 1 and 4 shards, and prints
// the v2/csv ratio. No check pins that ratio: it reads ~2-3x but varies
// run to run. What guards the v2 path is the A/B of its file/v2 cells
// against the base build (bench/ab.py).
//
//   --quick         ~2 s run: skip the rate sweep, small workload
//   --records DIR   write one run record per shard-sweep and file-replay
//                   cell, e.g. workload fig3a_replayer_throughput/file/v2/s1,
//                   metric throughput in events/s (records.h)
#include <cstdio>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "common/flags.h"
#include "common/stats.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "harness/report.h"
#include "records.h"
#include "replayer/sharded_replayer.h"
#include "replayer/tcp.h"
#include "stream/stream_file.h"
#include "stream/v2_writer.h"

using namespace graphtides;

namespace {

constexpr uint64_t kWorkloadSeed = 3;

std::vector<Event> MakeWorkload(size_t rounds) {
  SocialNetworkModel model;
  StreamGeneratorOptions options;
  options.rounds = rounds;
  options.seed = kWorkloadSeed;
  options.emit_phase_markers = false;
  auto stream = StreamGenerator(&model, options).Generate();
  if (!stream.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 stream.status().ToString().c_str());
    std::exit(1);
  }
  // Strip controls so the replay rate is exactly the configured target.
  std::vector<Event> events;
  for (Event& e : stream->events) {
    if (IsGraphOp(e.type)) events.push_back(std::move(e));
  }
  return events;
}

struct RateObservation {
  double median = 0.0;
  double p05 = 0.0;
  double max = 0.0;
  double lag_p50_us = 0.0;
  double lag_p99_us = 0.0;
  double lag_max_us = 0.0;
};

/// Achieved-rate distribution over 100 ms bins across `repetitions` runs.
RateObservation Measure(const std::vector<Event>& events, double target_rate,
                        bool tcp, int repetitions) {
  std::vector<double> bin_rates;
  LatencyHistogram lags;
  for (int rep = 0; rep < repetitions; ++rep) {
    ShardedReplayerOptions options;
    options.total_rate_eps = target_rate;
    options.stats_bin = Duration::FromMillis(100);
    ShardedReplayer replayer(options);

    Result<ShardedReplayStats> stats = Status::Internal("unset");
    if (tcp) {
      TcpLineServer server;
      auto port = server.Start(nullptr);
      if (!port.ok()) {
        std::fprintf(stderr, "server start failed\n");
        std::exit(1);
      }
      TcpSink sink;
      if (!sink.Connect("127.0.0.1", *port).ok()) {
        std::fprintf(stderr, "connect failed\n");
        std::exit(1);
      }
      stats = replayer.Replay(events, {&sink});
      server.Join();
    } else {
      std::FILE* devnull = std::fopen("/dev/null", "w");
      PipeSink sink(devnull);
      stats = replayer.Replay(events, {&sink});
      std::fclose(devnull);
    }
    if (!stats.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    // Drop the first and last bin (ramp-up / partial bin).
    const auto& series = stats->aggregate.rate_series;
    for (size_t i = 1; i + 1 < series.size(); ++i) {
      bin_rates.push_back(static_cast<double>(series[i].events) /
                          options.stats_bin.seconds());
    }
    lags.Merge(stats->aggregate.lag);
  }
  RateObservation obs;
  std::sort(bin_rates.begin(), bin_rates.end());
  obs.median = PercentileSorted(bin_rates, 0.5);
  obs.p05 = PercentileSorted(bin_rates, 0.05);
  obs.max = bin_rates.empty() ? 0.0 : bin_rates.back();
  obs.lag_p50_us = lags.ValueAtQuantileMicros(0.5);
  obs.lag_p99_us = lags.ValueAtQuantileMicros(0.99);
  obs.lag_max_us = static_cast<double>(lags.max_nanos()) / 1e3;
  return obs;
}

struct ShardObservation {
  size_t shards = 1;
  double events_per_sec = 0.0;
  double lag_p50_us = 0.0;
  double lag_p99_us = 0.0;
};

/// Unthrottled sharded replay to per-lane /dev/null pipes; median
/// events/s over `repetitions` runs plus emission-jitter percentiles.
ShardObservation MeasureSharded(const std::vector<Event>& events,
                                size_t shards, int repetitions) {
  std::vector<double> rates;
  LatencyHistogram lags;
  for (int rep = 0; rep < repetitions; ++rep) {
    ShardedReplayerOptions options;
    options.shards = shards;
    options.total_rate_eps = 1e9;  // deadlines always past: emit at full speed
    ShardedReplayer replayer(options);

    std::vector<std::FILE*> files;
    std::vector<std::unique_ptr<PipeSink>> pipes;
    std::vector<EventSink*> sinks;
    for (size_t s = 0; s < shards; ++s) {
      files.push_back(std::fopen("/dev/null", "w"));
      pipes.push_back(std::make_unique<PipeSink>(files.back()));
      sinks.push_back(pipes.back().get());
    }
    auto stats = replayer.Replay(events, sinks);
    for (std::FILE* f : files) std::fclose(f);
    if (!stats.ok()) {
      std::fprintf(stderr, "sharded replay failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    const double elapsed = stats->aggregate.Elapsed().seconds();
    if (elapsed > 0.0) {
      rates.push_back(
          static_cast<double>(stats->aggregate.events_delivered) / elapsed);
    }
    lags.Merge(stats->aggregate.lag);
  }
  ShardObservation obs;
  obs.shards = shards;
  std::sort(rates.begin(), rates.end());
  obs.events_per_sec = PercentileSorted(rates, 0.5);
  obs.lag_p50_us = lags.ValueAtQuantileMicros(0.5);
  obs.lag_p99_us = lags.ValueAtQuantileMicros(0.99);
  return obs;
}

struct FileReplayObservation {
  size_t shards = 1;
  std::string format;  // "csv" or "v2"
  double events_per_sec = 0.0;
};

/// Unthrottled ReplayFile from disk, end to end in one format: CSV rows
/// parse CSV lines and serialize CSV lines; v2 rows decode mmap'd blocks
/// (a bounds-checked pointer cast per record) and re-encode sealed blocks
/// on the negotiated v2 wire. Each encoding pays its own decode AND its
/// own serializer — the honest format-vs-format comparison.
FileReplayObservation MeasureFileReplay(const std::string& stream_path,
                                        const std::string& format,
                                        size_t shards, int repetitions) {
  const bool v2 = format == "v2";
  std::vector<double> rates;
  for (int rep = 0; rep < repetitions; ++rep) {
    ShardedReplayerOptions options;
    options.shards = shards;
    options.total_rate_eps = 1e9;  // deadlines always past: full speed
    options.wire_format = v2 ? WireFormat::kV2 : WireFormat::kCsv;
    ShardedReplayer replayer(options);

    std::vector<std::FILE*> files;
    std::vector<std::unique_ptr<PipeSink>> pipes;
    std::vector<EventSink*> sinks;
    for (size_t s = 0; s < shards; ++s) {
      files.push_back(std::fopen("/dev/null", "w"));
      pipes.push_back(std::make_unique<PipeSink>(files.back()));
      if (v2) pipes.back()->EnableV2Wire();
      sinks.push_back(pipes.back().get());
    }
    auto stats = replayer.ReplayFile(stream_path, sinks);
    for (std::FILE* f : files) std::fclose(f);
    if (!stats.ok()) {
      std::fprintf(stderr, "file replay failed: %s\n",
                   stats.status().ToString().c_str());
      std::exit(1);
    }
    const double elapsed = stats->aggregate.Elapsed().seconds();
    if (elapsed > 0.0) {
      rates.push_back(
          static_cast<double>(stats->aggregate.events_delivered) / elapsed);
    }
  }
  FileReplayObservation obs;
  obs.shards = shards;
  obs.format = format;
  std::sort(rates.begin(), rates.end());
  obs.events_per_sec = PercentileSorted(rates, 0.5);
  return obs;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string records_dir;
  FlagTable flags("fig3a_replayer_throughput");
  flags.Add("quick", &quick);
  flags.Add("records", &records_dir);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;

  std::printf("%s", SectionHeader(
      "Fig. 3a — Graph Stream Replayer throughput (pipe vs TCP)").c_str());
  std::printf("%s", ConfigBlock({
      {"Setup", "single process (replayer thread pair per run)"},
      {"Workload", "generated social network workload, graph ops only"},
      {"Pipe", "CSV lines through a stdio pipe buffer"},
      {"TCP", "CSV lines over a loopback socket to a line server"},
      {"Measurement", "achieved rate per 100 ms bin; median / 5th pct / max"},
  }).c_str());

  // Workload sized for ~0.5 s per run at the highest rate and reused
  // (truncated) for lower rates, keeping total bench time small. Quick mode
  // trims everything for a ~2 s CI smoke run.
  const std::vector<Event> full = MakeWorkload(quick ? 40000 : 170000);

  if (!quick) {
    const std::vector<double> targets = {10000, 20000, 40000, 80000,
                                         160000, 320000};
    const int repetitions = 3;
    TextTable table({"transport", "target [ev/s]", "median [ev/s]",
                     "p05 [ev/s]", "max [ev/s]", "lag p50 [us]",
                     "lag p99 [us]", "lag max [us]"});
    for (const bool tcp : {false, true}) {
      for (double target : targets) {
        const size_t count = std::min<size_t>(
            full.size(), static_cast<size_t>(target * 0.5));  // ~0.5 s
        const std::vector<Event> slice(
            full.begin(), full.begin() + static_cast<long>(count));
        const RateObservation obs = Measure(slice, target, tcp, repetitions);
        table.AddRow({tcp ? "tcp" : "pipe",
                      TextTable::FormatDouble(target, 0),
                      TextTable::FormatDouble(obs.median, 0),
                      TextTable::FormatDouble(obs.p05, 0),
                      TextTable::FormatDouble(obs.max, 0),
                      TextTable::FormatDouble(obs.lag_p50_us, 1),
                      TextTable::FormatDouble(obs.lag_p99_us, 1),
                      TextTable::FormatDouble(obs.lag_max_us, 0)});
      }
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "\nExpected shape (paper): the achieved median sticks to the target\n"
        "rate across the sweep for both transports, while the measured range\n"
        "— here the per-event emission-lag distribution — widens noticeably\n"
        "at the highest rates.\n");
  }

  std::printf("%s", SectionHeader(
      "Shard sweep — unthrottled ShardedReplayer events/s").c_str());
  const int shard_reps = quick ? 2 : 3;
  std::vector<ShardObservation> sweep;
  TextTable shard_table({"shards", "events/s", "jitter p50 [us]",
                         "jitter p99 [us]"});
  for (const size_t shards : {1u, 2u, 4u, 8u}) {
    sweep.push_back(MeasureSharded(full, shards, shard_reps));
    const ShardObservation& obs = sweep.back();
    shard_table.AddRow({std::to_string(obs.shards),
                        TextTable::FormatDouble(obs.events_per_sec, 0),
                        TextTable::FormatDouble(obs.lag_p50_us, 2),
                        TextTable::FormatDouble(obs.lag_p99_us, 2)});
  }
  std::printf("%s", shard_table.ToString().c_str());
  std::printf("host cores: %u (lane scaling needs >= as many cores as lanes)\n",
              std::thread::hardware_concurrency());

  std::printf("%s", SectionHeader(
      "File replay — CSV vs gt-stream-v2 end-to-end, unthrottled events/s")
          .c_str());
  const std::filesystem::path bench_dir =
      std::filesystem::temp_directory_path() /
      ("gt_fig3a_" + std::to_string(::getpid()));
  std::filesystem::create_directories(bench_dir);
  const std::string csv_path = (bench_dir / "workload.gts").string();
  const std::string v2_path = (bench_dir / "workload.gts2").string();
  // The file sweep times the steady-state decode path, so the workload is
  // replicated until per-run fixed costs (lane threads, open/mmap) are
  // noise — the ~10 ms quick-mode runs would otherwise compress the ratio.
  std::vector<Event> file_workload;
  while (file_workload.size() < 400000) {
    file_workload.insert(file_workload.end(), full.begin(), full.end());
  }
  for (const Status& st : {WriteStreamFile(csv_path, file_workload),
                           WriteV2StreamFile(v2_path, file_workload)}) {
    if (!st.ok()) {
      std::fprintf(stderr, "workload write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  std::vector<FileReplayObservation> file_sweep;
  TextTable file_table({"shards", "csv [ev/s]", "v2 [ev/s]", "v2 speedup"});
  for (const size_t shards : {1u, 4u}) {
    file_sweep.push_back(
        MeasureFileReplay(csv_path, "csv", shards, shard_reps));
    const double csv_eps = file_sweep.back().events_per_sec;
    file_sweep.push_back(MeasureFileReplay(v2_path, "v2", shards, shard_reps));
    const double v2_eps = file_sweep.back().events_per_sec;
    file_table.AddRow({std::to_string(shards),
                       TextTable::FormatDouble(csv_eps, 0),
                       TextTable::FormatDouble(v2_eps, 0),
                       TextTable::FormatDouble(
                           csv_eps > 0.0 ? v2_eps / csv_eps : 0.0, 2) + "x"});
  }
  std::printf("%s", file_table.ToString().c_str());
  std::printf(
      "v2 replaces the CSV parse with an mmap pointer cast on input and the\n"
      "CSV escape/format with sealed binary blocks on the wire. The\n"
      "speedup is reported, not checked: it varies from run to run.\n");
  std::filesystem::remove_all(bench_dir);

  const std::string prefix = "fig3a_replayer_throughput/";
  for (const ShardObservation& r : sweep) {
    const std::string cell = "shards/s" + std::to_string(r.shards);
    bench::WriteThroughputRecord(records_dir, prefix + cell, kWorkloadSeed,
                                 r.events_per_sec);
  }
  for (const FileReplayObservation& r : file_sweep) {
    const std::string cell =
        "file/" + r.format + "/s" + std::to_string(r.shards);
    bench::WriteThroughputRecord(records_dir, prefix + cell, kWorkloadSeed,
                                 r.events_per_sec);
  }
  return 0;
}
