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
  std::string model_name = "social";
  std::string out;
  std::string stream_out;
  std::string format_name = "csv";
  StreamGeneratorOptions options;
  bool no_phase_markers = false;
  bool want_stats = false;
  FlagTable flags("gt_generate");
  flags.Add("model", &model_name);
  flags.Add("rounds", &options.rounds);
  flags.Add("seed", &options.seed);
  flags.Add("out", &out);
  flags.Add("stream-out", &stream_out);
  flags.Add("format", &format_name);
  flags.Add("marker-interval", &options.marker_interval);
  flags.AddMillis("bootstrap-pause", &options.bootstrap_pause);
  flags.Add("no-phase-markers", &no_phase_markers);
  flags.Add("stats", &want_stats);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  options.emit_phase_markers = !no_phase_markers;

  if (format_name != "csv" && format_name != "v2") {
    return Fail(Status::InvalidArgument("unknown --format: " + format_name));
  }
  const bool v2_out = format_name == "v2";

  std::unique_ptr<GeneratorModel> model;
  if (model_name == "social") {
    model = std::make_unique<SocialNetworkModel>();
  } else if (model_name == "ddos") {
    DdosModelOptions ddos;
    // One attack window in the middle third of the run.
    ddos.attacks = {{options.rounds / 3, 2 * options.rounds / 3}};
    model = std::make_unique<DdosModel>(ddos);
  } else if (model_name == "blockchain") {
    model = std::make_unique<BlockchainModel>();
  } else if (model_name == "mix") {
    model = std::make_unique<EventMixModel>(EventMixModelOptions{});
  } else {
    return Fail(Status::InvalidArgument("unknown model: " + model_name));
  }

  StreamGenerator generator(model.get(), options);
  StreamStatisticsBuilder stats;

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
