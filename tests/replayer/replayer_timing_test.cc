// Wall-clock pacing and cancellation of a one-lane ShardedReplayer. These
// assertions depend on the lane getting a CPU when its deadlines come due,
// so the binary runs serially (RUN_SERIAL, label "timing").
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "replayer/sharded_replayer.h"

namespace graphtides {
namespace {

std::vector<Event> VertexStream(size_t n) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  return events;
}

/// Replays `events` on one lane at `rate_eps` and returns the run's
/// aggregate stats.
Result<ReplayStats> ReplayOneLane(double rate_eps,
                                  const std::vector<Event>& events,
                                  EventSink* sink,
                                  const CancellationToken* cancel = nullptr,
                                  const std::string& checkpoint_path = "",
                                  const ReplayCheckpoint* resume = nullptr) {
  ShardedReplayerOptions options;
  options.total_rate_eps = rate_eps;
  options.cancel = cancel;
  options.checkpoint_path = checkpoint_path;
  ShardedReplayer replayer(options);
  Result<ShardedReplayStats> stats = replayer.Replay(events, {sink}, resume);
  if (!stats.ok()) return stats.status();
  return std::move(stats->aggregate);
}

/// Serialized-capable sink that keeps the bytes and the size of every
/// delivery hand-off.
class RecordingSink final : public EventSink {
 public:
  Status Deliver(const Event&) override {
    return Status::Internal("serialized delivery expected");
  }
  bool SupportsSerialized() const override { return true; }
  Status DeliverSerialized(std::string_view lines, size_t count) override {
    bytes_.append(lines);
    call_sizes_.push_back(count);
    return Status::OK();
  }

  const std::string& bytes() const { return bytes_; }
  const std::vector<size_t>& call_sizes() const { return call_sizes_; }

 private:
  std::string bytes_;
  std::vector<size_t> call_sizes_;
};

TEST(ReplayerTest, PacedLaneDeliversAndAccountsEachEventAtItsSlot) {
  // At 1k ev/s the lane waits before almost every event, and each wait
  // point first hands the sink what is pending and accounts it. A lane
  // preempted for a while catches up in one hand-off, hence the slack.
  RecordingSink sink;
  auto stats = ReplayOneLane(1000.0, VertexStream(500), &sink);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->events_delivered, 500u);
  ASSERT_FALSE(sink.call_sizes().empty());
  EXPECT_LE(*std::max_element(sink.call_sizes().begin(),
                              sink.call_sizes().end()),
            32u);
  EXPECT_GE(stats->lag.count(), 450u);
}

TEST(ReplayerTest, CancelDrainsReadAheadUnpacedAndResumesExactly) {
  const std::vector<Event> events = VertexStream(200000);
  const std::string cp_path =
      (std::filesystem::temp_directory_path() /
       ("gt_replay_cancel_" + std::to_string(::getpid()) + ".ckpt"))
          .string();

  RecordingSink golden;
  ASSERT_TRUE(ReplayOneLane(1e9, events, &golden).ok());

  // 20k ev/s makes the stream 10 s long; cancel after about 1 s. The lane
  // still delivers what the reader had already handed it (its hand-off's
  // read-ahead: up to 8 queued batches of 1024 events plus the one it is
  // draining), but unpaced, so Replay returns promptly.
  CancellationToken cancel;
  MonotonicClock clock;
  Timestamp cancelled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    cancelled_at = clock.Now();
    cancel.RequestCancel("test cancel");
  });
  RecordingSink part1;
  auto stats1 = ReplayOneLane(20000.0, events, &part1, &cancel, cp_path);
  const Timestamp returned_at = clock.Now();
  canceller.join();
  ASSERT_FALSE(stats1.ok());
  EXPECT_TRUE(stats1.status().IsCancelled()) << stats1.status();
  EXPECT_LT((returned_at - cancelled_at).seconds(), 0.5);

  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok()) << cp.status();
  std::filesystem::remove(cp_path);
  EXPECT_GT(cp->events_delivered, 0u);
  EXPECT_LT(cp->events_delivered, events.size());

  RecordingSink part2;
  auto stats2 = ReplayOneLane(1e9, events, &part2, nullptr, "", &*cp);
  ASSERT_TRUE(stats2.ok()) << stats2.status();
  EXPECT_EQ(stats2->events_delivered, events.size());
  EXPECT_EQ(part1.bytes() + part2.bytes(), golden.bytes());
}

TEST(ReplayerTest, CancelWhileTheFileDecoderIsBlockedReturnsPromptly) {
  // 200k entries is far more than the lane's and the decoder's hand-offs
  // hold together, so at 20k ev/s every stage upstream of the lane is
  // blocked on a full queue when the cancel fires.
  const std::vector<Event> events = VertexStream(200000);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gt_replay_decode_cancel_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string stream_path = (dir / "s.gts").string();
  const std::string cp_path = (dir / "cp").string();
  {
    std::ofstream out(stream_path, std::ios::binary);
    for (const Event& e : events) out << e.ToCsvLine() << '\n';
    ASSERT_TRUE(out.good());
  }
  auto replay_file = [&](double rate_eps, EventSink* sink,
                         const CancellationToken* cancel,
                         const ReplayCheckpoint* resume) {
    ShardedReplayerOptions options;
    options.total_rate_eps = rate_eps;
    options.cancel = cancel;
    options.checkpoint_path = cancel != nullptr ? cp_path : "";
    ShardedReplayer replayer(options);
    return replayer.ReplayFile(stream_path, {sink}, resume).status();
  };

  RecordingSink golden;
  ASSERT_TRUE(replay_file(1e9, &golden, nullptr, nullptr).ok());

  CancellationToken cancel;
  MonotonicClock clock;
  Timestamp cancelled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancelled_at = clock.Now();
    cancel.RequestCancel("test cancel");
  });
  RecordingSink part1;
  const Status status1 = replay_file(20000.0, &part1, &cancel, nullptr);
  const Timestamp returned_at = clock.Now();
  canceller.join();
  EXPECT_TRUE(status1.IsCancelled()) << status1;
  EXPECT_LT((returned_at - cancelled_at).seconds(), 0.5);

  // The cancelled run stopped well short of the end, and its final
  // checkpoint resumes byte-exactly.
  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok()) << cp.status();
  EXPECT_GT(cp->events_delivered, 0u);
  EXPECT_LT(cp->events_delivered, events.size() / 2);
  RecordingSink part2;
  ASSERT_TRUE(replay_file(1e9, &part2, nullptr, &*cp).ok());
  EXPECT_EQ(part1.bytes() + part2.bytes(), golden.bytes());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace graphtides
