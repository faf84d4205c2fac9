// gt-stream-v2 conformance, part 3: replay equivalence. CSV is the golden
// format; this suite proves v2 changes the encoding and nothing else:
//   * replaying a v2 file produces byte-identical per-lane sink output to
//     replaying the equivalent CSV file, at 1 and at 4 shards;
//   * v2 wire output (negotiated on the pipe handshake) decodes back to
//     exactly the CSV lanes' events;
//   * checkpoint/resume over a v2 input concatenates byte-identically
//     with an uninterrupted run, same as over CSV.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"
#include "replayer/sharded_replayer.h"
#include "stream/stream_file.h"
#include "stream/v2_reader.h"
#include "stream/v2_writer.h"

namespace graphtides {
namespace {

class V2ReplayEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_v2_replay_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Interleaved vertex/edge ops over a small entity set plus markers and
// controls — the same shape the sharded-replayer determinism tests use.
std::vector<Event> MixedStream(size_t graph_events) {
  std::vector<Event> events;
  uint64_t next_vertex = 0;
  size_t emitted = 0;
  while (emitted < graph_events) {
    const uint64_t v = next_vertex++;
    const std::string id = std::to_string(v);
    events.push_back(Event::AddVertex(v, "s" + id));
    ++emitted;
    if (v >= 2 && emitted < graph_events) {
      events.push_back(Event::AddEdge(v, v / 2, "w" + id));
      ++emitted;
    }
    if (emitted % 500 == 0) {
      events.push_back(
          Event::Marker(std::string("m").append(std::to_string(emitted))));
    }
    if (emitted == graph_events / 2) events.push_back(Event::SetRate(2.0));
  }
  return events;
}

struct LaneFiles {
  std::vector<std::string> paths;
};

// Replays `stream_path` through file-backed PipeSinks, one per shard;
// returns the per-lane output paths. `wire` selects the format offered on
// the handshake (sinks opt in when it is kV2).
LaneFiles ReplayToFiles(const std::string& stream_path, size_t shards,
                        WireFormat wire, const std::string& out_tag,
                        const std::filesystem::path& dir) {
  LaneFiles lanes;
  std::vector<std::FILE*> files;
  std::vector<std::unique_ptr<PipeSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    const std::string path =
        (dir / (out_tag + ".shard" + std::to_string(s))).string();
    lanes.paths.push_back(path);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path;
    files.push_back(f);
    sinks.push_back(std::make_unique<PipeSink>(f));
    if (wire == WireFormat::kV2) sinks.back()->EnableV2Wire();
    sink_ptrs.push_back(sinks.back().get());
  }
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = 4e6;
  options.wire_format = wire;
  ShardedReplayer replayer(options);
  const auto stats = replayer.ReplayFile(stream_path, sink_ptrs);
  EXPECT_TRUE(stats.ok()) << stats.status();
  for (std::FILE* f : files) std::fclose(f);
  return lanes;
}

TEST_F(V2ReplayEquivalenceTest, V2InputLanesMatchCsvInputLanesByteForByte) {
  const std::vector<Event> events = MixedStream(4000);
  ASSERT_TRUE(WriteStreamFile(Path("s.gts"), events).ok());
  ASSERT_TRUE(WriteV2StreamFile(Path("s.gts2"), events).ok());

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = std::to_string(shards);
    const LaneFiles from_csv = ReplayToFiles(
        Path("s.gts"), shards, WireFormat::kCsv, "csv" + tag, dir_);
    const LaneFiles from_v2 = ReplayToFiles(
        Path("s.gts2"), shards, WireFormat::kCsv, "v2" + tag, dir_);
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(Slurp(from_csv.paths[s]), Slurp(from_v2.paths[s]))
          << shards << " shard(s), lane " << s;
      EXPECT_FALSE(Slurp(from_csv.paths[s]).empty()) << "lane " << s;
    }
  }
}

TEST_F(V2ReplayEquivalenceTest, V2WireOutputDecodesToTheCsvLanes) {
  const std::vector<Event> events = MixedStream(3000);
  ASSERT_TRUE(WriteStreamFile(Path("s.gts"), events).ok());

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const std::string tag = std::to_string(shards);
    const LaneFiles csv_lanes = ReplayToFiles(
        Path("s.gts"), shards, WireFormat::kCsv, "golden" + tag, dir_);
    const LaneFiles v2_lanes = ReplayToFiles(
        Path("s.gts"), shards, WireFormat::kV2, "wire" + tag, dir_);
    for (size_t s = 0; s < shards; ++s) {
      // The lane output is a complete, self-delimiting v2 stream:
      // preamble from the handshake, sentinel from Finish.
      auto format = DetectStreamFormat(v2_lanes.paths[s]);
      ASSERT_TRUE(format.ok());
      ASSERT_EQ(*format, StreamFormat::kV2) << "lane " << s;
      auto decoded = ReadV2StreamFile(v2_lanes.paths[s]);
      ASSERT_TRUE(decoded.ok()) << "lane " << s << ": " << decoded.status();

      std::vector<Event> golden;
      StreamFileReader reader;
      ASSERT_TRUE(reader.Open(csv_lanes.paths[s]).ok());
      for (;;) {
        auto next = reader.Next();
        ASSERT_TRUE(next.ok()) << next.status();
        if (!next->has_value()) break;
        golden.push_back(**next);
      }
      EXPECT_EQ(*decoded, golden) << shards << " shard(s), lane " << s;
    }
  }
}

TEST_F(V2ReplayEquivalenceTest, CheckpointResumeOverV2InputIsByteExact) {
  const std::vector<Event> events = MixedStream(3000);
  ASSERT_TRUE(WriteV2StreamFile(Path("s.gts2"), events).ok());

  const size_t shards = 2;
  auto run = [&](const std::string& tag, uint64_t stop_after,
                 const ReplayCheckpoint* resume,
                 std::vector<std::string>* lane_paths) {
    std::vector<std::FILE*> files;
    std::vector<std::unique_ptr<PipeSink>> sinks;
    std::vector<EventSink*> sink_ptrs;
    for (size_t s = 0; s < shards; ++s) {
      const std::string path = Path(tag + ".shard" + std::to_string(s));
      if (lane_paths->size() < shards) lane_paths->push_back(path);
      if (resume != nullptr) {
        ASSERT_EQ(resume->sink_bytes.size(), shards);
        std::filesystem::resize_file(path, resume->sink_bytes[s]);
      }
      std::FILE* f = std::fopen(path.c_str(), resume ? "ab" : "wb");
      ASSERT_NE(f, nullptr) << path;
      files.push_back(f);
      sinks.push_back(std::make_unique<PipeSink>(f));
      sink_ptrs.push_back(sinks.back().get());
    }
    ShardedReplayerOptions options;
    options.shards = shards;
    options.total_rate_eps = 4e6;
    options.checkpoint_path = Path("ckpt");
    options.checkpoint_every = 250;
    options.record_sink_bytes = true;
    options.stop_after_events = stop_after;
    ShardedReplayer replayer(options);
    const auto stats =
        replayer.ReplayFile(Path("s.gts2"), sink_ptrs, resume);
    ASSERT_TRUE(stats.ok()) << stats.status();
    for (std::FILE* f : files) std::fclose(f);
  };

  std::vector<std::string> golden_paths;
  run("golden", 0, nullptr, &golden_paths);

  std::vector<std::string> resumed_paths;
  run("resumed", 1100, nullptr, &resumed_paths);
  auto loaded = CheckpointStore::LoadLatestGood(Path("ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->checkpoint.events_delivered, 1100u);
  run("resumed", 0, &loaded->checkpoint, &resumed_paths);

  for (size_t s = 0; s < shards; ++s) {
    EXPECT_EQ(Slurp(golden_paths[s]), Slurp(resumed_paths[s])) << "lane " << s;
  }
}

}  // namespace
}  // namespace graphtides
