// Golden determinism for the sharded replay pipeline: replaying the same
// stream with --shards 1 and --shards N into per-shard capture sinks and
// merging the captures by global sequence number must reproduce the exact
// single-lane event order and identical marker epochs; each lane's output
// must be an order-preserving subsequence of the stream.
#include "replayer/sharded_replayer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "stream/v2_format.h"
#include "stream/v2_writer.h"

namespace graphtides {
namespace {

// A stream that exercises every routing rule: interleaved vertex and edge
// ops over a small entity set (so per-entity order is genuinely at risk),
// a marker every `marker_every` events, and a SET_RATE change mid-stream.
std::vector<Event> MixedStream(size_t graph_events, size_t marker_every) {
  std::vector<Event> events;
  events.reserve(graph_events + graph_events / marker_every + 2);
  size_t emitted = 0;
  uint64_t next_vertex = 0;
  while (emitted < graph_events) {
    const uint64_t v = next_vertex++;
    const std::string id = std::to_string(v);
    events.push_back(Event::AddVertex(v, "s" + id));
    ++emitted;
    if (v >= 2 && emitted < graph_events) {
      events.push_back(Event::AddEdge(v, v / 2, "w" + id));
      ++emitted;
    }
    if (v >= 4 && v % 3 == 0 && emitted < graph_events) {
      events.push_back(Event::UpdateVertex(v - 2, "u" + id));
      ++emitted;
    }
    if (v >= 6 && v % 5 == 0 && emitted < graph_events) {
      events.push_back(Event::RemoveEdge(v - 2, (v - 2) / 2));
      ++emitted;
    }
    if (emitted % marker_every == 0) {
      events.push_back(
          Event::Marker(std::string("m").append(std::to_string(emitted))));
    }
    if (emitted == graph_events / 2) {
      events.push_back(Event::SetRate(2.0));
    }
  }
  return events;
}

/// Captures (global sequence number, canonical line) pairs per shard.
class SequencedCaptureSink final : public EventSink {
 public:
  Status Deliver(const Event& event) override {
    return DeliverSequenced(event, 0);
  }
  Status DeliverSequenced(const Event& event, uint64_t seq) override {
    captured_.emplace_back(seq, event.ToCsvLine());
    return Status::OK();
  }

  const std::vector<std::pair<uint64_t, std::string>>& captured() const {
    return captured_;
  }

 private:
  std::vector<std::pair<uint64_t, std::string>> captured_;
};

struct ShardedRun {
  ShardedReplayStats stats;
  std::vector<std::vector<std::pair<uint64_t, std::string>>> per_shard;
  /// All captures merged back into global sequence order.
  std::vector<std::pair<uint64_t, std::string>> merged;
};

ShardedRun RunSharded(const std::vector<Event>& events, size_t shards) {
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = 4e6;  // fast enough that pacing is a no-op
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  EXPECT_TRUE(stats.ok()) << stats.status();
  ShardedRun run;
  if (stats.ok()) run.stats = std::move(*stats);
  for (const auto& sink : sinks) {
    run.per_shard.push_back(sink->captured());
    run.merged.insert(run.merged.end(), sink->captured().begin(),
                      sink->captured().end());
  }
  std::sort(run.merged.begin(), run.merged.end());
  return run;
}

TEST(ShardOfEventTest, EdgeOpsFollowTheirSourceVertex) {
  for (uint64_t v = 0; v < 200; ++v) {
    const size_t vertex_shard =
        ShardOfEvent(EventType::kAddVertex, v, {}, 4);
    const size_t edge_shard =
        ShardOfEvent(EventType::kAddEdge, 0, {v, v + 7}, 4);
    EXPECT_EQ(edge_shard, vertex_shard) << "source vertex " << v;
    EXPECT_LT(vertex_shard, 4u);
  }
}

TEST(ShardOfEventTest, SingleShardAlwaysRoutesToLaneZero) {
  for (uint64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(ShardOfVertex(v, 1), 0u);
  }
}

TEST(ShardOfEventTest, HashSpreadsSequentialIdsAcrossLanes) {
  std::map<size_t, size_t> counts;
  const size_t shards = 4;
  for (uint64_t v = 0; v < 4000; ++v) ++counts[ShardOfVertex(v, shards)];
  ASSERT_EQ(counts.size(), shards);
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, 4000u / shards / 2) << "shard " << shard;
  }
}

TEST(ShardedReplayerTest, GoldenDeterminismAcrossShardCounts) {
  const std::vector<Event> events = MixedStream(4000, 500);
  const ShardedRun one = RunSharded(events, 1);
  const ShardedRun four = RunSharded(events, 4);

  // The single lane is the reference: it delivers the stream's graph events
  // in stream order, line for line.
  std::vector<std::string> stream_lines;
  for (const Event& e : events) {
    if (IsGraphOp(e.type)) stream_lines.push_back(e.ToCsvLine());
  }
  ASSERT_EQ(one.per_shard[0].size(), stream_lines.size());
  for (size_t i = 0; i < stream_lines.size(); ++i) {
    ASSERT_EQ(one.per_shard[0][i].second, stream_lines[i]) << "position " << i;
  }

  // Merged by sequence number, the four-lane replay reproduces the
  // single-lane event order exactly.
  ASSERT_EQ(one.merged.size(), four.merged.size());
  EXPECT_EQ(one.merged, four.merged);

  // Sequence numbers are the contiguous global order 0..N-1.
  for (size_t i = 0; i < four.merged.size(); ++i) {
    ASSERT_EQ(four.merged[i].first, i);
  }

  // Identical marker epochs: same labels, same events-delivered-before, in
  // the same order.
  ASSERT_EQ(one.stats.aggregate.marker_log.size(),
            four.stats.aggregate.marker_log.size());
  for (size_t i = 0; i < one.stats.aggregate.marker_log.size(); ++i) {
    EXPECT_EQ(one.stats.aggregate.marker_log[i].label,
              four.stats.aggregate.marker_log[i].label);
    EXPECT_EQ(one.stats.aggregate.marker_log[i].events_before,
              four.stats.aggregate.marker_log[i].events_before);
  }
  EXPECT_EQ(one.stats.aggregate.events_delivered,
            four.stats.aggregate.events_delivered);
  EXPECT_EQ(four.stats.aggregate.markers, one.stats.aggregate.markers);
  EXPECT_EQ(four.stats.aggregate.controls, one.stats.aggregate.controls);
}

TEST(ShardedReplayerTest, LaneOutputsAreOrderPreservingSubsequences) {
  const std::vector<Event> events = MixedStream(3000, 1000);
  const ShardedRun four = RunSharded(events, 4);
  size_t total = 0;
  for (size_t s = 0; s < four.per_shard.size(); ++s) {
    const auto& lane = four.per_shard[s];
    total += lane.size();
    for (size_t i = 1; i < lane.size(); ++i) {
      ASSERT_LT(lane[i - 1].first, lane[i].first)
          << "lane " << s << " emitted out of stream order at " << i;
    }
  }
  EXPECT_EQ(total, four.stats.aggregate.events_delivered);
  // With the splitmix hash over thousands of entities, no lane may sit
  // empty — all four were genuinely exercised.
  for (size_t s = 0; s < four.per_shard.size(); ++s) {
    EXPECT_FALSE(four.per_shard[s].empty()) << "lane " << s;
  }
}

TEST(ShardedReplayerTest, ReplayFileMatchesInMemoryReplay) {
  const std::vector<Event> events = MixedStream(1500, 400);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("gt_sharded_" + std::to_string(::getpid()) + ".stream");
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good());
    out << "# golden determinism fixture\n\n";
    for (const Event& e : events) out << e.ToCsvLine() << '\n';
  }

  ShardedReplayerOptions options;
  options.shards = 4;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < 4; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const Result<ShardedReplayStats> stats =
      replayer.ReplayFile(path.string(), sink_ptrs);
  std::filesystem::remove(path);
  ASSERT_TRUE(stats.ok()) << stats.status();

  std::vector<std::pair<uint64_t, std::string>> merged;
  for (const auto& sink : sinks) {
    merged.insert(merged.end(), sink->captured().begin(),
                  sink->captured().end());
  }
  std::sort(merged.begin(), merged.end());

  const ShardedRun in_memory = RunSharded(events, 4);
  EXPECT_EQ(merged, in_memory.merged);
  EXPECT_EQ(stats->aggregate.entries_consumed,
            in_memory.stats.aggregate.entries_consumed);
}

TEST(ShardedReplayerTest, StopAfterEventsStopsExactly) {
  const std::vector<Event> events = MixedStream(2000, 500);
  ShardedReplayerOptions options;
  options.shards = 4;
  options.total_rate_eps = 4e6;
  options.stop_after_events = 777;
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < 4; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  const Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(stats->aggregate.stopped_early);
  EXPECT_EQ(stats->aggregate.events_delivered, 777u);
  size_t total = 0;
  for (const auto& sink : sinks) total += sink->captured().size();
  EXPECT_EQ(total, 777u);
}

TEST(ShardedReplayerTest, SinkFailurePropagatesWithoutHanging) {
  const std::vector<Event> events = MixedStream(2000, 500);
  ShardedReplayerOptions options;
  options.shards = 3;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  SequencedCaptureSink ok_a;
  SequencedCaptureSink ok_b;
  size_t delivered_to_bad = 0;
  CallbackSink bad([&](const Event&) {
    if (++delivered_to_bad > 50) return Status::IoError("injected failure");
    return Status::OK();
  });
  const std::vector<EventSink*> sink_ptrs = {&ok_a, &bad, &ok_b};
  const Result<ShardedReplayStats> stats = replayer.Replay(events, sink_ptrs);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError()) << stats.status();
}

TEST(ShardedReplayerTest, RejectsSinkCountMismatch) {
  ShardedReplayerOptions options;
  options.shards = 2;
  ShardedReplayer replayer(options);
  SequencedCaptureSink only;
  const Result<ShardedReplayStats> stats =
      replayer.Replay({Event::AddVertex(1)}, {&only});
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

TEST(ShardedReplayerTest, ProgressReflectsDeliveries) {
  const std::vector<Event> events = MixedStream(1000, 500);
  ShardedReplayerOptions options;
  options.shards = 2;
  options.total_rate_eps = 4e6;
  ShardedReplayer replayer(options);
  SequencedCaptureSink a;
  SequencedCaptureSink b;
  ASSERT_TRUE(replayer.Replay(events, {&a, &b}).ok());
  EXPECT_EQ(replayer.progress(), a.captured().size() + b.captured().size());
}

// --- The reader's error contract for malformed files. A decode error
// reaches the reader after every entry before it: those entries are
// delivered (merged by sequence number, exactly the graph events before
// the bad entry), their marker and control epochs complete, and the run
// returns ParseError with the entry's position.

/// Outcome of a ReplayFile run into sequenced capture sinks.
struct FileRun {
  Status status;
  /// All captures merged back into global sequence order.
  std::vector<std::pair<uint64_t, std::string>> merged;
  /// Global epoch ordinals completed (markers + controls), in order.
  std::vector<uint64_t> epochs;
};

FileRun ReplayFileSharded(const std::string& path, size_t shards) {
  FileRun run;
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = 4e6;
  // Called inside barrier completions, which run one at a time.
  options.epoch_hook = [&run](uint64_t epoch) {
    run.epochs.push_back(epoch);
    return Status::OK();
  };
  ShardedReplayer replayer(options);
  std::vector<std::unique_ptr<SequencedCaptureSink>> sinks;
  std::vector<EventSink*> sink_ptrs;
  for (size_t s = 0; s < shards; ++s) {
    sinks.push_back(std::make_unique<SequencedCaptureSink>());
    sink_ptrs.push_back(sinks.back().get());
  }
  run.status = replayer.ReplayFile(path, sink_ptrs).status();
  for (const auto& sink : sinks) {
    run.merged.insert(run.merged.end(), sink->captured().begin(),
                      sink->captured().end());
  }
  std::sort(run.merged.begin(), run.merged.end());
  return run;
}

/// What a run that stops at entry `bad` (0-based) must have delivered:
/// the graph events before it with their sequence numbers, and the
/// epochs of the markers and controls before it.
FileRun ExpectedBefore(const std::vector<Event>& events, size_t bad) {
  FileRun expected;
  uint64_t epoch = 0;
  for (size_t i = 0; i < bad; ++i) {
    if (IsGraphOp(events[i].type)) {
      expected.merged.emplace_back(expected.merged.size(),
                                   events[i].ToCsvLine());
    } else {
      expected.epochs.push_back(++epoch);
    }
  }
  return expected;
}

class ShardedReplayerDecodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_sharded_decode_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(ShardedReplayerDecodeTest, CsvParseErrorStopsAfterEveryEntryBeforeIt) {
  // Long enough that the bad line sits several read-ahead batches deep.
  const std::vector<Event> events = MixedStream(6000, 250);
  const size_t bad = 4500;
  const std::string path = Path("bad_line.gts");
  {
    std::ofstream out(path, std::ios::binary);
    out << "# stream with one malformed line\n";
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == bad) out << "CREATE_VERTEX,12x,state\n";
      out << events[i].ToCsvLine() << '\n';
    }
    ASSERT_TRUE(out.good());
  }
  // One comment line precedes the entries; lines are 1-based.
  std::string line = "line ";
  line.append(std::to_string(bad + 2)).append(": ");
  const FileRun expected = ExpectedBefore(events, bad);
  ASSERT_FALSE(expected.epochs.empty());
  for (const size_t shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    const FileRun run = ReplayFileSharded(path, shards);
    EXPECT_TRUE(run.status.IsParseError()) << run.status;
    EXPECT_NE(run.status.message().find(line), std::string::npos)
        << run.status;
    EXPECT_EQ(run.merged, expected.merged);
    EXPECT_EQ(run.epochs, expected.epochs);
  }
}

/// Writes `events` as a v2 file and returns its bytes plus the offset of
/// each block header (the sentinel's excluded).
std::string V2Bytes(const std::string& path, const std::vector<Event>& events,
                    std::vector<size_t>* blocks) {
  EXPECT_TRUE(WriteV2StreamFile(path, events).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  size_t pos = kV2PreambleBytes;
  while (pos + kV2BlockHeaderBytes <= bytes.size()) {
    const Result<V2BlockHeader> h =
        ParseV2BlockHeader(std::string_view(bytes).substr(pos));
    EXPECT_TRUE(h.ok()) << h.status();
    if (!h.ok() || h->end_of_stream()) break;
    blocks->push_back(pos);
    pos += kV2BlockHeaderBytes + h->body_bytes();
  }
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

uint32_t LoadU32(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

void StoreU32(uint32_t v, std::string* bytes, size_t at) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

TEST_F(ShardedReplayerDecodeTest, V2FlippedBodyByteDeliversOnlyEarlierBlocks) {
  const std::vector<Event> events = MixedStream(10000, 500);
  std::vector<size_t> blocks;
  std::string bytes = V2Bytes(Path("s.gts2"), events, &blocks);
  ASSERT_GE(blocks.size(), 3u);
  // A raw flip in the second block's body fails its CRC, so none of that
  // block's records is decoded.
  const size_t first_records = LoadU32(bytes, blocks[0] + 8);
  bytes[blocks[1] + kV2BlockHeaderBytes + 40] ^= 0x10;
  WriteBytes(Path("flipped.gts2"), bytes);
  const FileRun expected = ExpectedBefore(events, first_records);
  for (const size_t shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    const FileRun run = ReplayFileSharded(Path("flipped.gts2"), shards);
    EXPECT_TRUE(run.status.IsParseError()) << run.status;
    EXPECT_NE(run.status.message().find("CRC"), std::string::npos)
        << run.status;
    EXPECT_EQ(run.merged, expected.merged);
    EXPECT_EQ(run.epochs, expected.epochs);
  }
}

TEST_F(ShardedReplayerDecodeTest, V2BadRecordIsNamedAndEndsTheRun) {
  const std::vector<Event> events = MixedStream(10000, 500);
  std::vector<size_t> blocks;
  std::string bytes = V2Bytes(Path("s.gts2"), events, &blocks);
  ASSERT_GE(blocks.size(), 3u);
  // An unknown type byte in record 100 of the second block, resealed so
  // both CRCs hold: the decoder rejects that record, and the records
  // before it in the same block are still delivered.
  const size_t first_records = LoadU32(bytes, blocks[0] + 8);
  const size_t body = blocks[1] + kV2BlockHeaderBytes;
  bytes[body + 100 * kV2RecordBytes] = 42;
  const size_t body_bytes = kV2RecordBytes * LoadU32(bytes, blocks[1] + 8) +
                            LoadU32(bytes, blocks[1] + 12);
  StoreU32(Crc32c(std::string_view(bytes).substr(body, body_bytes)), &bytes,
           blocks[1] + 16);
  StoreU32(Crc32c(std::string_view(bytes).substr(blocks[1], 20)), &bytes,
           blocks[1] + 20);
  WriteBytes(Path("bad_record.gts2"), bytes);
  const size_t bad = first_records + 100;
  std::string record = "record ";
  record.append(std::to_string(bad + 1)).append(": ");
  const FileRun expected = ExpectedBefore(events, bad);
  for (const size_t shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards " << shards);
    const FileRun run = ReplayFileSharded(Path("bad_record.gts2"), shards);
    EXPECT_TRUE(run.status.IsParseError()) << run.status;
    EXPECT_NE(run.status.message().find(record), std::string::npos)
        << run.status;
    EXPECT_EQ(run.merged, expected.merged);
    EXPECT_EQ(run.epochs, expected.epochs);
  }
}

}  // namespace
}  // namespace graphtides
