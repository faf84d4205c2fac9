// Generator pipeline throughput — the fig3a-style harness for the stream
// generation side (§5.1: generation must comfortably outrun the replayer so
// workload preparation never bounds an experiment).
//
// Three configurations over the same social-network workload:
//
//   seed-inmem   the seed's path: Generate() into a vector, then per-event
//                std::to_string/vector<string> serialization (a faithful
//                local copy of the seed formatter) and one fwrite per line
//   inmem        Generate() into a vector, then the shared std::to_chars
//                serializer into a reused block buffer, one fwrite per block
//   pipeline     GenerateTo(PipelinedWriterConsumer): the engine thread
//                generates while the calling thread serializes and
//                writes, batch-arena handoff, one fwrite per ~256 KB,
//                constant memory
//
// A serialize-only section isolates the formatter change (the events/s of
// turning an in-memory stream into bytes), where the legacy allocation-per-
// field path is slowest.
//
//   --quick         ~2 s run: small workload, fewer repetitions
//   --records DIR   write one run record per configuration, e.g. workload
//                   gen_throughput/pipeline, metric throughput in events/s
//                   (records.h; bench/ab.py compares them)
#include <cstdio>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/stats.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "generator/stream_pipeline.h"
#include "harness/report.h"
#include "records.h"
#include "stream/event.h"

using namespace graphtides;

namespace {

constexpr uint64_t kSeed = 3;

StreamGeneratorOptions BenchOptions(size_t rounds) {
  StreamGeneratorOptions options;
  options.rounds = rounds;
  options.seed = kSeed;
  options.marker_interval = 1000;
  return options;
}

/// The seed's Event::ToCsvLine, kept verbatim as the measurement baseline:
/// a vector<string> of fields built with std::to_string / string concat,
/// joined by FormatCsvLine.
std::string SeedFormatEventLine(const Event& e) {
  std::vector<std::string> fields;
  fields.emplace_back(EventTypeName(e.type));
  switch (e.type) {
    case EventType::kAddVertex:
    case EventType::kUpdateVertex:
      fields.push_back(std::to_string(e.vertex));
      fields.push_back(e.payload);
      break;
    case EventType::kRemoveVertex:
      fields.push_back(std::to_string(e.vertex));
      fields.emplace_back();
      break;
    case EventType::kAddEdge:
    case EventType::kUpdateEdge:
      fields.push_back(std::to_string(e.edge.src) + "-" +
                       std::to_string(e.edge.dst));
      fields.push_back(e.payload);
      break;
    case EventType::kRemoveEdge:
      fields.push_back(std::to_string(e.edge.src) + "-" +
                       std::to_string(e.edge.dst));
      fields.emplace_back();
      break;
    case EventType::kMarker:
      fields.emplace_back();
      fields.push_back(e.payload);
      break;
    case EventType::kSetRate: {
      fields.emplace_back();
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", e.rate_factor);
      fields.emplace_back(buf);
      break;
    }
    case EventType::kPause:
      fields.emplace_back();
      fields.push_back(std::to_string(e.pause.millis()));
      break;
  }
  return FormatCsvLine(fields);
}

struct Run {
  double events_per_sec = 0.0;
  size_t events = 0;
};

/// Seed path: materialize the whole stream, then serialize each event to
/// its own string and fwrite it line by line.
Run RunSeedInmem(size_t rounds, FILE* out) {
  SocialNetworkModel model;
  StreamGenerator generator(&model, BenchOptions(rounds));
  const Timestamp start = WallClock().Now();
  auto stream = generator.Generate();
  if (!stream.ok()) std::exit(1);
  for (const Event& e : stream->events) {
    const std::string line = SeedFormatEventLine(e);
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
  std::fflush(out);
  const double elapsed = (WallClock().Now() - start).seconds();
  return {static_cast<double>(stream->events.size()) / elapsed,
          stream->events.size()};
}

/// In-memory generation + the shared to_chars serializer, block writes.
Run RunInmemToChars(size_t rounds, FILE* out) {
  SocialNetworkModel model;
  StreamGenerator generator(&model, BenchOptions(rounds));
  const Timestamp start = WallClock().Now();
  auto stream = generator.Generate();
  if (!stream.ok()) std::exit(1);
  std::string block;
  block.reserve(size_t{1} << 20);
  for (const Event& e : stream->events) {
    AppendEventLine(e, &block);
    if (block.size() >= (size_t{1} << 20) - 512) {
      std::fwrite(block.data(), 1, block.size(), out);
      block.clear();
    }
  }
  std::fwrite(block.data(), 1, block.size(), out);
  std::fflush(out);
  const double elapsed = (WallClock().Now() - start).seconds();
  return {static_cast<double>(stream->events.size()) / elapsed,
          stream->events.size()};
}

/// The pipeline: streaming generation on the engine thread, serialization
/// and writes on this one, no materialized vector.
Run RunPipeline(size_t rounds, FILE* out) {
  SocialNetworkModel model;
  StreamGenerator generator(&model, BenchOptions(rounds));
  const Timestamp start = WallClock().Now();
  PipelinedWriterConsumer writer(out);
  auto summary = generator.GenerateTo(writer);
  if (!summary.ok()) std::exit(1);
  const double elapsed = (WallClock().Now() - start).seconds();
  return {static_cast<double>(summary->total_events) / elapsed,
          summary->total_events};
}

/// Serialize-only: events/s of formatting a pre-generated stream to bytes.
Run RunSerializeOnly(const std::vector<Event>& events, bool legacy,
                     FILE* out) {
  const Timestamp start = WallClock().Now();
  if (legacy) {
    for (const Event& e : events) {
      const std::string line = SeedFormatEventLine(e);
      std::fwrite(line.data(), 1, line.size(), out);
      std::fputc('\n', out);
    }
  } else {
    std::string block;
    block.reserve(size_t{1} << 20);
    for (const Event& e : events) {
      AppendEventLine(e, &block);
      if (block.size() >= (size_t{1} << 20) - 512) {
        std::fwrite(block.data(), 1, block.size(), out);
        block.clear();
      }
    }
    std::fwrite(block.data(), 1, block.size(), out);
  }
  std::fflush(out);
  const double elapsed = (WallClock().Now() - start).seconds();
  return {static_cast<double>(events.size()) / elapsed, events.size()};
}

struct Observation {
  std::string config;
  double events_per_sec = 0.0;
};

/// Median events/s over `repetitions` runs of `fn`.
template <typename Fn>
Observation Measure(const std::string& config, int repetitions, Fn&& fn) {
  std::vector<double> rates;
  for (int rep = 0; rep < repetitions; ++rep) {
    FILE* devnull = std::fopen("/dev/null", "w");
    const Run run = fn(devnull);
    std::fclose(devnull);
    rates.push_back(run.events_per_sec);
  }
  std::sort(rates.begin(), rates.end());
  return {config, PercentileSorted(rates, 0.5)};
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string records_dir;
  FlagTable flags("gen_throughput");
  flags.Add("quick", &quick);
  flags.Add("records", &records_dir);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;

  const size_t rounds = quick ? 150000 : 1000000;
  const int reps = quick ? 3 : 5;

  std::printf("%s", SectionHeader(
      "Generator pipeline throughput (generation -> CSV bytes)").c_str());
  std::printf("%s", ConfigBlock({
      {"Workload", "social network model, marker every 1000 events"},
      {"seed-inmem", "Generate() + per-event to_string serialization"},
      {"inmem", "Generate() + to_chars block serialization"},
      {"pipeline", "GenerateTo(PipelinedWriterConsumer), constant memory"},
      {"Output", "/dev/null (stdio buffered)"},
      {"Measurement", "median end-to-end events/s over repetitions"},
  }).c_str());

  std::vector<Observation> results;
  results.push_back(Measure("seed-inmem", reps, [&](FILE* out) {
    return RunSeedInmem(rounds, out);
  }));
  results.push_back(Measure("inmem", reps, [&](FILE* out) {
    return RunInmemToChars(rounds, out);
  }));
  results.push_back(Measure("pipeline", reps, [&](FILE* out) {
    return RunPipeline(rounds, out);
  }));

  // Serialize-only section over a pre-generated stream.
  SocialNetworkModel model;
  StreamGenerator generator(&model, BenchOptions(rounds));
  auto stream = generator.Generate();
  if (!stream.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 stream.status().ToString().c_str());
    return 1;
  }
  const std::vector<Event>& events = stream->events;
  results.push_back(Measure("serialize-seed", reps, [&](FILE* out) {
    return RunSerializeOnly(events, /*legacy=*/true, out);
  }));
  results.push_back(Measure("serialize-tochars", reps, [&](FILE* out) {
    return RunSerializeOnly(events, /*legacy=*/false, out);
  }));

  TextTable table({"config", "events/s"});
  for (const Observation& r : results) {
    table.AddRow({r.config, TextTable::FormatDouble(r.events_per_sec, 0)});
  }
  std::printf("%s", table.ToString().c_str());

  auto rate_of = [&](const std::string& config) {
    const auto it = std::find_if(
        results.begin(), results.end(),
        [&config](const Observation& r) { return r.config == config; });
    return it == results.end() ? 0.0 : it->events_per_sec;
  };
  const double seed_e2e = rate_of("seed-inmem");
  const double seed_ser = rate_of("serialize-seed");
  if (seed_e2e > 0.0 && seed_ser > 0.0) {
    std::printf("\nspeedup vs seed path: pipeline end-to-end %.2fx, "
                "serialization %.2fx\n",
                rate_of("pipeline") / seed_e2e,
                rate_of("serialize-tochars") / seed_ser);
  }
  std::printf("host cores: %u\n", std::thread::hardware_concurrency());

  for (const Observation& r : results) {
    bench::WriteThroughputRecord(records_dir, "gen_throughput/" + r.config,
                                 kSeed, r.events_per_sec);
  }
  return 0;
}
