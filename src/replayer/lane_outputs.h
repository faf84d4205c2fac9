// Per-lane output files: the deterministic alternative to interleaved
// stdout that byte-exact kill-resume comparison needs. Each lane writes its
// own file through a PipeSink. On resume every file is first truncated to
// the byte offset the checkpoint recorded for its lane (Kafka-style log
// truncation: the offset is the durable high-water mark; everything past
// it was delivered after the record, or half-flushed by a crash, and is
// re-emitted), then reopened for append, so the bytes concatenate
// identically with an uninterrupted run. gt_replay --out and the
// distributed replay worker both open their files here.
#ifndef GRAPHTIDES_REPLAYER_LANE_OUTPUTS_H_
#define GRAPHTIDES_REPLAYER_LANE_OUTPUTS_H_

#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"

namespace graphtides {

/// `<prefix>.shard<shard>`: the file global shard `shard` writes.
std::string ShardOutputPath(const std::string& prefix, size_t shard);

/// The file lane `lane` of a `lanes`-lane single-process run writes:
/// `prefix` itself for one lane, else ShardOutputPath(prefix, lane).
std::string LaneOutputPath(const std::string& prefix, size_t lane,
                           size_t lanes);

/// \brief Open per-lane output files and their sinks; closes the files
/// when destroyed.
class LaneOutputs {
 public:
  PipeSink* sink(size_t lane) const { return sinks_[lane].get(); }
  /// One sink per lane, in lane order (what ShardedReplayer takes).
  std::vector<EventSink*> sinks() const;
  /// Drops the sinks and closes the files (the destructor does the same).
  void Close();

 private:
  friend Result<LaneOutputs> OpenLaneOutputs(
      const std::vector<std::string>& paths, const ReplayCheckpoint* resume);

  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  // Declared before the sinks, so every sink is gone before its file closes.
  std::vector<std::unique_ptr<std::FILE, FileCloser>> files_;
  std::vector<std::unique_ptr<PipeSink>> sinks_;
};

/// \brief Opens one output file per path, lane i writing paths[i]. Without
/// `resume` each file is created or emptied. With it, the checkpoint must
/// record one sink byte offset per path, and each file must exist and be
/// at least that long; it is truncated to the offset and opened for
/// append.
Result<LaneOutputs> OpenLaneOutputs(const std::vector<std::string>& paths,
                                    const ReplayCheckpoint* resume);

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_LANE_OUTPUTS_H_
