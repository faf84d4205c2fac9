// The single replayer of §5.1: a one-lane ShardedReplayer — one reader
// thread, one paced emitter thread, one sink.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "replayer/sharded_replayer.h"
#include "stream/stream_file.h"

namespace graphtides {
namespace {

std::vector<Event> VertexStream(size_t n) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  return events;
}

ShardedReplayerOptions AtRate(double rate_eps) {
  ShardedReplayerOptions options;
  options.total_rate_eps = rate_eps;
  return options;
}

/// Replays `events` on one lane and returns the run's aggregate stats.
Result<ReplayStats> ReplayOneLane(const ShardedReplayerOptions& options,
                                  const std::vector<Event>& events,
                                  EventSink* sink) {
  ShardedReplayer replayer(options);
  Result<ShardedReplayStats> stats = replayer.Replay(events, {sink});
  if (!stats.ok()) return stats.status();
  return std::move(stats->aggregate);
}

TEST(ReplayerTest, DeliversAllEventsInOrder) {
  std::vector<VertexId> seen;
  CallbackSink sink([&](const Event& e) {
    seen.push_back(e.vertex);
    return Status::OK();
  });
  auto stats = ReplayOneLane(AtRate(1e6), VertexStream(1000), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_delivered, 1000u);
  ASSERT_EQ(seen.size(), 1000u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ReplayerTest, MarkersLoggedNotDelivered) {
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 5, Event::Marker("HALFWAY"));
  events.push_back(Event::Marker("END"));
  size_t delivered = 0;
  CallbackSink sink([&](const Event& e) {
    EXPECT_NE(e.type, EventType::kMarker);
    ++delivered;
    return Status::OK();
  });
  auto stats = ReplayOneLane(AtRate(1e6), events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(delivered, 10u);
  EXPECT_EQ(stats->markers, 2u);
  ASSERT_EQ(stats->marker_log.size(), 2u);
  EXPECT_EQ(stats->marker_log[0].label, "HALFWAY");
  EXPECT_EQ(stats->marker_log[0].events_before, 5u);
  EXPECT_EQ(stats->marker_log[1].label, "END");
  EXPECT_EQ(stats->marker_log[1].events_before, 10u);
  EXPECT_LE(stats->marker_log[0].time, stats->marker_log[1].time);
}

TEST(ReplayerTest, AchievesTargetRateApproximately) {
  NullSink sink;
  auto stats = ReplayOneLane(AtRate(20000.0), VertexStream(4000), &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->AchievedRateEps(), 20000.0, 3000.0);
}

TEST(ReplayerTest, PauseControlDelaysStream) {
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 5, Event::Pause(Duration::FromMillis(50)));
  NullSink sink;
  auto stats = ReplayOneLane(AtRate(1e6), events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->controls, 1u);
  EXPECT_GE(stats->Elapsed().millis(), 50);
}

TEST(ReplayerTest, SetRateControlChangesThroughput) {
  // 1000 events at 100k eps (10 ms), then SET_RATE 0.1 -> 100 more events
  // at 10k eps (10 ms). Without the control the run would take ~11 ms.
  std::vector<Event> events = VertexStream(1000);
  events.push_back(Event::SetRate(0.1));
  for (VertexId v = 0; v < 100; ++v) {
    events.push_back(Event::AddVertex(10000 + v));
  }
  NullSink sink;
  auto stats = ReplayOneLane(AtRate(100000.0), events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->Elapsed().millis(), 18);
}

TEST(ReplayerTest, ControlsIgnoredWhenDisabled) {
  ShardedReplayerOptions options = AtRate(1e6);
  options.honor_control_events = false;
  std::vector<Event> events = VertexStream(10);
  events.insert(events.begin() + 2, Event::Pause(Duration::FromSeconds(5.0)));
  NullSink sink;
  auto stats = ReplayOneLane(options, events, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->Elapsed().millis(), 1000);
  EXPECT_EQ(stats->controls, 1u);  // counted but not honored
}

TEST(ReplayerTest, SinkErrorAbortsRun) {
  size_t delivered = 0;
  CallbackSink sink([&](const Event&) -> Status {
    if (++delivered == 50) return Status::IoError("sink broke");
    return Status::OK();
  });
  auto stats = ReplayOneLane(AtRate(1e6), VertexStream(100000), &sink);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError());
  EXPECT_EQ(delivered, 50u);
}

TEST(ReplayerTest, RateSeriesAccountsForAllEvents) {
  ShardedReplayerOptions options = AtRate(100000.0);
  options.stats_bin = Duration::FromMillis(10);
  NullSink sink;
  auto stats = ReplayOneLane(options, VertexStream(5000), &sink);
  ASSERT_TRUE(stats.ok());
  size_t total = 0;
  for (const RateSample& sample : stats->rate_series) total += sample.events;
  EXPECT_EQ(total, 5000u);
  EXPECT_GE(stats->rate_series.size(), 4u);
}

TEST(ReplayerTest, ReplayFileStreamsFromDisk) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("gt_replay_" + std::to_string(::getpid()) + ".gts"))
          .string();
  std::vector<Event> events = VertexStream(500);
  events.push_back(Event::Marker("EOF_MARK"));
  ASSERT_TRUE(WriteStreamFile(path, events).ok());

  ShardedReplayer replayer(AtRate(1e6));
  size_t delivered = 0;
  CallbackSink sink([&](const Event&) {
    ++delivered;
    return Status::OK();
  });
  auto stats = replayer.ReplayFile(path, {&sink});
  std::filesystem::remove(path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(delivered, 500u);
  EXPECT_EQ(stats->aggregate.markers, 1u);
}

TEST(ReplayerTest, ReplayMissingFileFails) {
  ShardedReplayer replayer(ShardedReplayerOptions{});
  NullSink sink;
  auto stats = replayer.ReplayFile("/nonexistent/file.gts", {&sink});
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsIoError());
}

TEST(ReplayerTest, EmptyStreamFinishesCleanly) {
  NullSink sink;
  auto stats = ReplayOneLane(ShardedReplayerOptions{}, {}, &sink);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->events_delivered, 0u);
}

TEST(ReplayerTest, QueueSmallerThanStreamStillDeliversAll) {
  // 100k events overrun the lane's 8 x 1024-event hand-off a dozen times,
  // so the reader blocks on a full lane over and over. A marker every 1,500
  // events flushes a partial batch ending in a barrier token, so full
  // batches, partial flushes and tokens interleave.
  constexpr size_t kEvents = 100000;
  constexpr size_t kMarkerEvery = 1500;
  std::vector<Event> events;
  for (VertexId v = 0; v < kEvents; ++v) {
    events.push_back(Event::AddVertex(v));
    if ((v + 1) % kMarkerEvery == 0) {
      events.push_back(Event::Marker(std::to_string(v + 1)));
    }
  }
  std::vector<VertexId> seen;
  CallbackSink sink([&](const Event& e) {
    seen.push_back(e.vertex);
    return Status::OK();
  });
  auto stats = ReplayOneLane(AtRate(1e6), events, &sink);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->events_delivered, kEvents);
  ASSERT_EQ(seen.size(), kEvents);
  for (size_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
  ASSERT_EQ(stats->marker_log.size(), kEvents / kMarkerEvery);
  for (size_t i = 0; i < stats->marker_log.size(); ++i) {
    EXPECT_EQ(stats->marker_log[i].events_before, (i + 1) * kMarkerEvery);
    EXPECT_EQ(stats->marker_log[i].label,
              std::to_string((i + 1) * kMarkerEvery));
  }
}

}  // namespace
}  // namespace graphtides
