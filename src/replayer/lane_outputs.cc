#include "replayer/lane_outputs.h"

#include <sys/stat.h>
#include <unistd.h>

namespace graphtides {

std::string ShardOutputPath(const std::string& prefix, size_t shard) {
  return prefix + ".shard" + std::to_string(shard);
}

std::string LaneOutputPath(const std::string& prefix, size_t lane,
                           size_t lanes) {
  return lanes == 1 ? prefix : ShardOutputPath(prefix, lane);
}

std::vector<EventSink*> LaneOutputs::sinks() const {
  std::vector<EventSink*> out;
  out.reserve(sinks_.size());
  for (const auto& sink : sinks_) out.push_back(sink.get());
  return out;
}

void LaneOutputs::Close() {
  sinks_.clear();
  files_.clear();
}

Result<LaneOutputs> OpenLaneOutputs(const std::vector<std::string>& paths,
                                    const ReplayCheckpoint* resume) {
  if (resume != nullptr && resume->sink_bytes.size() != paths.size()) {
    return Status::InvalidArgument(
        "resume checkpoint records " +
        std::to_string(resume->sink_bytes.size()) +
        " sink byte offsets for " + std::to_string(paths.size()) +
        " output files (written without --out, or the shard count "
        "changed)");
  }
  LaneOutputs outputs;
  for (size_t lane = 0; lane < paths.size(); ++lane) {
    const std::string& path = paths[lane];
    if (resume != nullptr) {
      const uint64_t offset = resume->sink_bytes[lane];
      struct ::stat file_stat {};
      if (::stat(path.c_str(), &file_stat) != 0) {
        return Status::IoError("cannot stat " + path);
      }
      if (static_cast<uint64_t>(file_stat.st_size) < offset) {
        return Status::IoError(
            path + " is shorter than its checkpointed offset (" +
            std::to_string(file_stat.st_size) + " < " +
            std::to_string(offset) + " bytes)");
      }
      if (::truncate(path.c_str(), static_cast<off_t>(offset)) != 0) {
        return Status::IoError("cannot truncate " + path);
      }
    }
    std::FILE* f = std::fopen(path.c_str(), resume != nullptr ? "ab" : "wb");
    if (f == nullptr) return Status::IoError("cannot open " + path);
    outputs.files_.emplace_back(f);
    outputs.sinks_.push_back(std::make_unique<PipeSink>(f));
  }
  return outputs;
}

}  // namespace graphtides
