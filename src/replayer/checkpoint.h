// Replay checkpoints: periodic durable records of a replay run's position
// and accounting, so an aborted run (watchdog cancel, controlled stop, or a
// crash that left the last periodic checkpoint behind) can resume from the
// last record instead of restarting the stream.
//
// The invariant that makes resume exactly-once: a checkpoint is written
// only at entry boundaries, *after* the sink acknowledged every event the
// record counts. Entries before `entries_consumed` are never re-emitted on
// resume; entries at or after it have never been emitted under the
// checkpointed accounting. Clean aborts (cancellation / stop_after_events)
// flush a final checkpoint at the exact abort point, so a resumed run's
// sink output concatenates byte-identically with the aborted run's.
//
// Crash durability: the record carries a CRC-32 footer over every
// preceding byte, the publish path fsyncs the temp file and its directory
// before the atomic rename, and CheckpointStore keeps N rotated
// generations — a SIGKILL or power loss at any instant leaves either the
// new record, the previous one, or a torn file the loader rejects and
// falls back past. Per-shard `sink_bytes` record how many payload bytes
// each sink had durably absorbed at the checkpoint, so a resume over file
// sinks can truncate away bytes delivered (but not checkpointed) after it.
#ifndef GRAPHTIDES_REPLAYER_CHECKPOINT_H_
#define GRAPHTIDES_REPLAYER_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "replayer/event_sink.h"

namespace graphtides {

/// \brief One durable snapshot of replay progress.
struct ReplayCheckpoint {
  /// Format version; readers accept only 2, whose records end in a
  /// mandatory crc32 footer.
  uint64_t version = 2;
  /// Source entries consumed (graph events + markers + controls): the
  /// stream offset emission resumes from.
  uint64_t entries_consumed = 0;
  /// Graph events delivered to (and acknowledged by) the sink.
  uint64_t events_delivered = 0;
  /// Graph events delivered by THIS process's shard range (distributed
  /// shard-range runs, where events_delivered counts the whole stream).
  /// 0 in single-process records — their local share IS events_delivered.
  uint64_t local_events = 0;
  uint64_t markers = 0;
  uint64_t controls = 0;
  /// Pacing state at the checkpoint: the active SET_RATE factor.
  double rate_factor = 1.0;
  /// Raw state of the sink chain's RNG (retry jitter), if one was
  /// registered for checkpointing; all zeros otherwise.
  std::array<uint64_t, 4> rng_state{};
  /// Sink-chain fault telemetry accumulated up to the checkpoint.
  SinkTelemetry telemetry;
  /// Cumulative payload bytes each shard's sink had flushed when the
  /// checkpoint was taken (empty when the run's sinks do not count
  /// bytes). A resume over per-shard output files truncates each file to
  /// its entry before appending, discarding bytes a crash delivered past
  /// the record.
  std::vector<uint64_t> sink_bytes;

  bool operator==(const ReplayCheckpoint& other) const;

  /// Renders the checkpoint as '#'-headed key=value text, ending with the
  /// crc32 footer line.
  std::string ToText() const;
  /// Inverse of ToText. ParseError on malformed, truncated, corrupt, or
  /// unknown-version input, and on a missing footer — any byte-level
  /// damage to a record fails its checksum.
  static Result<ReplayCheckpoint> FromText(const std::string& text);

  /// \brief Writes the checkpoint to `path` durably and atomically: temp
  /// file + fsync + rename + parent-directory fsync, so a reader never
  /// observes a torn record and a crash immediately after return cannot
  /// roll it back. I/O errors (including fsync failures) are returned,
  /// never swallowed.
  Status SaveTo(const std::string& path) const;
  static Result<ReplayCheckpoint> LoadFrom(const std::string& path);
};

/// \brief Rotated multi-generation checkpoint store.
///
/// `path` always names the newest published record; `path.1` the previous
/// one, up to `generations - 1` ancestors. Save rotates then publishes, so
/// a crash anywhere in the sequence leaves at least one intact generation;
/// LoadLatestGood scans newest-first and falls back past torn or corrupt
/// records instead of aborting the resume.
class CheckpointStore {
 public:
  struct Options {
    std::string path;
    /// Published generations kept, >= 1 (1 = classic single file).
    size_t generations = 1;
  };

  explicit CheckpointStore(Options options) : options_(std::move(options)) {}

  /// Rotates existing generations one slot down, then publishes `cp` as
  /// the newest.
  Status Save(const ReplayCheckpoint& cp) const;

  struct Loaded {
    ReplayCheckpoint checkpoint;
    /// Generation index the record came from (0 = newest).
    size_t generation = 0;
    /// Generations skipped (missing, torn, or corrupt) before this one.
    size_t fallbacks = 0;
    /// Reject reason per skipped generation that existed on disk.
    std::vector<std::string> rejected;
  };

  /// \brief Loads the newest generation that parses and verifies,
  /// scanning `path`, `path.1`, ... up to `max_generations` slots.
  /// NotFound when no generation exists at all; the last parse failure
  /// when files exist but none is good.
  static Result<Loaded> LoadLatestGood(const std::string& path,
                                       size_t max_generations = 16);

  /// Slot path for generation `g` (0 = `path` itself).
  static std::string GenerationPath(const std::string& path, size_t g);

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_CHECKPOINT_H_
