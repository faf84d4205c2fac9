// The graph stream generator engine (§4.1, §5.1): runs a GeneratorModel in
// two phases (bootstrap + round-based evolution) and produces the event
// sequence of a graph stream, including phase markers and periodic markers.
//
// Two emission modes share one engine:
//   * GenerateTo(consumer) — streaming: the engine runs on its own thread
//     and hands events in batches to the calling thread, which feeds them
//     to an EventConsumer in stream order (§5.1's decoupled, multi-threaded
//     design). Memory use is bounded by the topology shadow plus a fixed
//     number of batches, never by the stream length (out-of-core
//     generation), and the consumer's work overlaps generation;
//   * Generate() — legacy: runs the engine on the calling thread and
//     collects the whole stream into a GeneratedStream vector.
// Both produce byte-identical streams for the same model/seed/options.
#ifndef GRAPHTIDES_GENERATOR_STREAM_GENERATOR_H_
#define GRAPHTIDES_GENERATOR_STREAM_GENERATOR_H_

#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "generator/event_consumer.h"
#include "generator/graph_builder.h"
#include "generator/model.h"
#include "stream/event.h"

namespace graphtides {

struct StreamGeneratorOptions {
  uint64_t seed = 42;
  /// Number of evolution-phase graph events to generate.
  size_t rounds = 10000;
  /// Emit "MARK_<n>" markers every this many evolution events (0 = off).
  size_t marker_interval = 0;
  /// Emit BOOTSTRAP_DONE / STREAM_END phase markers.
  bool emit_phase_markers = true;
  /// Insert a PAUSE of this length right after the bootstrap marker —
  /// the paper's standard two-phase stream layout (§4.1).
  Duration bootstrap_pause = Duration::Zero();
  /// Give up on a round after this many rejected candidates (selection
  /// failures, vetoes, constraint violations). The round is skipped; the
  /// generator continues. A fully stuck model aborts after
  /// `max_consecutive_skips` skipped rounds.
  size_t max_retries_per_round = 64;
  size_t max_consecutive_skips = 1000;
};

/// \brief Accounting of one generation run (no events — the streaming
/// result; events went to the consumer).
struct GenerateSummary {
  /// Stream entries emitted to the consumer (graph ops + markers +
  /// controls).
  size_t total_events = 0;
  size_t bootstrap_events = 0;
  size_t evolution_events = 0;
  size_t skipped_rounds = 0;
  /// Final topology sizes.
  size_t final_vertices = 0;
  size_t final_edges = 0;
};

struct GeneratedStream {
  std::vector<Event> events;
  size_t bootstrap_events = 0;
  size_t evolution_events = 0;
  size_t skipped_rounds = 0;
  /// Final topology sizes.
  size_t final_vertices = 0;
  size_t final_edges = 0;
};

/// \brief Runs a model to completion, streaming events to a consumer.
class StreamGenerator {
 public:
  StreamGenerator(GeneratorModel* model, StreamGeneratorOptions options)
      : model_(model), options_(options) {}

  /// Streaming emission: runs the engine on a thread of its own, pushes
  /// every event to `consumer` in stream order on the calling thread, and
  /// calls consumer.Finish() after the last one. Constant-memory in the
  /// stream length.
  ///
  /// A consumer error stops the engine at its next batch hand-off and is
  /// returned without calling Finish(). An engine error is returned after
  /// every event emitted before it has been consumed, also without
  /// Finish(). An exception thrown by a model hook is rethrown here.
  Result<GenerateSummary> GenerateTo(EventConsumer& consumer);

  /// Legacy in-memory emission: materializes the whole stream.
  Result<GeneratedStream> Generate();

 private:
  /// The engine loop, bootstrap plus rounds, on the calling thread: pushes
  /// every event to `sink` in stream order. Does not call sink.Finish().
  Result<GenerateSummary> RunEngine(EventConsumer& sink);

  /// Builds one evolution event into *out. Returns false with *error OK
  /// when the model produced no applicable candidate this attempt (the
  /// caller retries — the common case, kept free of Status message
  /// allocation), false with *error set on an engine error.
  bool BuildEvent(EventType type, GeneratorContext& ctx,
                  TopologyIndex& topology, Event* out, Status* error);

  GeneratorModel* model_;
  StreamGeneratorOptions options_;
};

/// \brief A control/marker entry to splice into a generated stream at an
/// absolute position counted in *graph events* (markers/controls do not
/// advance the position). Used to express workloads like Table 4's
/// "pause after 100,000 events, doubled rate for the next 50,000".
struct ScheduleEntry {
  size_t after_graph_events = 0;
  Event event;
};

/// \brief Splices schedule entries into `events`. Entries must be sorted by
/// position; several entries at one position keep their relative order.
std::vector<Event> ApplyControlSchedule(std::vector<Event> events,
                                        std::vector<ScheduleEntry> schedule);

}  // namespace graphtides

#endif  // GRAPHTIDES_GENERATOR_STREAM_GENERATOR_H_
