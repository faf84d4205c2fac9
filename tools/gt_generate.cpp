// gt_generate — the graph stream generator as a standalone tool (Fig. 2
// "Graph Stream Generator"; the paper's TypeScript tool, reimplemented).
//
// Usage:
//   gt_generate --model social --rounds 100000 --seed 7 --out stream.gts
//
// Flags:
//   --model            social | ddos | blockchain | mix   (default social)
//   --rounds N         evolution-phase events             (default 10000)
//   --seed S           generator seed                     (default 42)
//   --out FILE         output stream file                 (default stdout)
//   --stream-out FILE  stream events straight to FILE ("-" = stdout)
//                      from the engine thread: constant memory in
//                      the stream length, so arbitrarily long streams fit
//                      in a fixed RSS budget
//   --format F         csv (default) | v2 — output encoding; v2 writes
//                      the gt-stream-v2 binary block format
//                      (stream/v2_format.h), which gt_replay auto-detects
//                      and gt_convert round-trips losslessly to CSV
//   --marker-interval N  MARK_<i> every N events          (default 0 = off)
//   --bootstrap-pause MS pause event after bootstrap      (default 0)
//   --no-phase-markers   omit BOOTSTRAP_DONE / STREAM_END
//   --stats              print stream statistics to stderr
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "common/flags.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "generator/stream_pipeline.h"
#include "generator/v2_consumer.h"
#include "stream/statistics.h"
#include "stream/stream_file.h"
#include "stream/v2_writer.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_generate: %s\n", status.ToString().c_str());
  return 1;
}

/// Feeds every event to a statistics builder before forwarding it, so
/// --stats works on the streaming path without materializing the stream.
class TeeStatsConsumer final : public EventConsumer {
 public:
  TeeStatsConsumer(StreamStatisticsBuilder* stats, EventConsumer* inner)
      : stats_(stats), inner_(inner) {}

  Status Consume(Event&& event) override {
    stats_->Add(event);
    return inner_->Consume(std::move(event));
  }

  Status Finish() override { return inner_->Finish(); }

 private:
  StreamStatisticsBuilder* stats_;
  EventConsumer* inner_;
};

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const Flags& flags = *flags_or;
  const auto unknown = flags.UnknownFlags(
      {"model", "rounds", "seed", "out", "stream-out", "format",
       "marker-interval", "bootstrap-pause", "no-phase-markers", "stats",
       "help"});
  if (!unknown.empty()) {
    return Fail(Status::InvalidArgument("unknown flag --" + unknown[0]));
  }
  if (flags.GetBool("help")) {
    std::printf("usage: gt_generate --model social|ddos|blockchain|mix "
                "--rounds N --seed S [--out FILE | --stream-out FILE] "
                "[--format csv|v2]\n");
    return 0;
  }

  const std::string format_name = flags.GetString("format", "csv");
  if (format_name != "csv" && format_name != "v2") {
    return Fail(Status::InvalidArgument("unknown --format: " + format_name));
  }
  const bool v2_out = format_name == "v2";

  const std::string model_name = flags.GetString("model", "social");
  std::unique_ptr<GeneratorModel> model;
  if (model_name == "social") {
    model = std::make_unique<SocialNetworkModel>();
  } else if (model_name == "ddos") {
    DdosModelOptions options;
    auto rounds = flags.GetInt("rounds", 10000);
    if (!rounds.ok()) return Fail(rounds.status());
    // One attack window in the middle third of the run.
    options.attacks = {{static_cast<uint64_t>(*rounds / 3),
                        static_cast<uint64_t>(2 * *rounds / 3)}};
    model = std::make_unique<DdosModel>(options);
  } else if (model_name == "blockchain") {
    model = std::make_unique<BlockchainModel>();
  } else if (model_name == "mix") {
    model = std::make_unique<EventMixModel>(EventMixModelOptions{});
  } else {
    return Fail(Status::InvalidArgument("unknown model: " + model_name));
  }

  StreamGeneratorOptions options;
  auto rounds = flags.GetInt("rounds", 10000);
  if (!rounds.ok()) return Fail(rounds.status());
  options.rounds = static_cast<size_t>(*rounds);
  auto seed = flags.GetInt("seed", 42);
  if (!seed.ok()) return Fail(seed.status());
  options.seed = static_cast<uint64_t>(*seed);
  auto marker_interval = flags.GetInt("marker-interval", 0);
  if (!marker_interval.ok()) return Fail(marker_interval.status());
  options.marker_interval = static_cast<size_t>(*marker_interval);
  auto pause_ms = flags.GetInt("bootstrap-pause", 0);
  if (!pause_ms.ok()) return Fail(pause_ms.status());
  options.bootstrap_pause = Duration::FromMillis(*pause_ms);
  options.emit_phase_markers = !flags.GetBool("no-phase-markers");

  StreamGenerator generator(model.get(), options);
  const bool want_stats = flags.GetBool("stats");
  StreamStatisticsBuilder stats;

  const std::string stream_out = flags.GetString("stream-out", "");
  if (!stream_out.empty()) {
    // Streaming path: generator engine thread -> batch queue -> this
    // thread's serializer and writer; RSS stays bounded regardless of
    // --rounds.
    FILE* file = stdout;
    if (stream_out != "-") {
      file = std::fopen(stream_out.c_str(), v2_out ? "wb" : "w");
      if (file == nullptr) {
        return Fail(Status::IoError("cannot create stream file: " +
                                    stream_out + ": " + std::strerror(errno)));
      }
    }
    Result<GenerateSummary> summary = [&]() -> Result<GenerateSummary> {
      auto run = [&](EventConsumer& writer) {
        if (want_stats) {
          TeeStatsConsumer tee(&stats, &writer);
          return generator.GenerateTo(tee);
        }
        return generator.GenerateTo(writer);
      };
      if (v2_out) {
        V2WriterConsumer writer(file);
        return run(writer);
      }
      PipelinedWriterConsumer writer(file);
      return run(writer);
    }();
    if (file != stdout) std::fclose(file);
    if (!summary.ok()) return Fail(summary.status());
    std::fprintf(stderr,
                 "gt_generate: %zu events (%zu bootstrap, %zu evolution, %zu "
                 "skipped rounds) -> %s\n",
                 summary->total_events, summary->bootstrap_events,
                 summary->evolution_events, summary->skipped_rounds,
                 stream_out == "-" ? "stdout" : stream_out.c_str());
    if (want_stats) {
      std::fprintf(stderr, "%s\n", stats.Snapshot().ToString().c_str());
    }
    return 0;
  }

  auto stream = generator.Generate();
  if (!stream.ok()) return Fail(stream.status());

  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    if (v2_out) {
      V2FileWriter writer;
      Status st = writer.Attach(stdout);
      for (const Event& e : stream->events) {
        if (!st.ok()) break;
        st = writer.Append(e);
      }
      if (st.ok()) st = writer.Finish();
      if (!st.ok()) return Fail(st);
    } else {
      std::fputs(FormatStreamText(stream->events).c_str(), stdout);
    }
  } else {
    const Status st = v2_out ? WriteV2StreamFile(out, stream->events)
                             : WriteStreamFile(out, stream->events);
    if (!st.ok()) return Fail(st);
  }
  std::fprintf(stderr,
               "gt_generate: %zu events (%zu bootstrap, %zu evolution, %zu "
               "skipped rounds) -> %s\n",
               stream->events.size(), stream->bootstrap_events,
               stream->evolution_events, stream->skipped_rounds,
               out.empty() ? "stdout" : out.c_str());
  if (want_stats) {
    std::fprintf(stderr, "%s\n",
                 ComputeStreamStatistics(stream->events).ToString().c_str());
  }
  return 0;
}
