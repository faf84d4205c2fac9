#include "sim/virtual_replayer.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace graphtides {
namespace {

std::vector<Event> VertexStream(size_t n) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  return events;
}

TEST(VirtualReplayerTest, UniformSpacingAtBaseRate) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);  // 1 ms apart
  std::vector<int64_t> times;
  replayer.Start(VertexStream(5),
                 [&](const Event&, size_t) { times.push_back(sim.Now().micros()); });
  sim.RunUntilIdle();
  EXPECT_EQ(times, (std::vector<int64_t>{0, 1000, 2000, 3000, 4000}));
  EXPECT_TRUE(replayer.finished());
  EXPECT_EQ(replayer.events_delivered(), 5u);
}

TEST(VirtualReplayerTest, PauseShiftsSubsequentEvents) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);
  std::vector<Event> events = VertexStream(4);
  events.insert(events.begin() + 2, Event::Pause(Duration::FromMillis(100)));
  std::vector<int64_t> times;
  replayer.Start(events,
                 [&](const Event&, size_t) { times.push_back(sim.Now().millis()); });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 1);
  EXPECT_EQ(times[2], 102);
  EXPECT_EQ(times[3], 103);
}

// SET_RATE re-anchors the schedule at the previous emission, as a lane's
// SetFactor does: the new interval applies from the very next event.
TEST(VirtualReplayerTest, SetRateAppliesFromNextEmission) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);
  std::vector<Event> events = VertexStream(2);
  events.push_back(Event::SetRate(2.0));
  for (VertexId v = 10; v < 14; ++v) events.push_back(Event::AddVertex(v));
  std::vector<int64_t> times;
  replayer.Start(events,
                 [&](const Event&, size_t) { times.push_back(sim.Now().micros()); });
  sim.RunUntilIdle();
  EXPECT_EQ(times, (std::vector<int64_t>{0, 1000, 1500, 2000, 2500, 3000}));
}

// The schedule is anchored (k * interval, rounded once), not a running sum
// of truncated intervals: 1e9 / 3000 ns truncated per event would land the
// 30,001st event 10 us early.
TEST(VirtualReplayerTest, FractionalIntervalDoesNotDrift) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 3000.0);
  replayer.Start(VertexStream(30001), [](const Event&, size_t) {});
  sim.RunUntilIdle();
  ASSERT_EQ(replayer.delivery_times().size(), 30001u);
  EXPECT_EQ(replayer.delivery_times().back().nanos(), 10'000'000'000);
}

// Markers are stamped as they pass the emitter: right after the graph
// event before them, not one interval later with the next one.
TEST(VirtualReplayerTest, MarkersStampedRightAfterPrecedingEvent) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);
  std::vector<Event> events = VertexStream(3);
  events.insert(events.begin() + 2, Event::Marker("M"));
  events.push_back(Event::Marker("END"));
  std::vector<std::pair<std::string, int64_t>> markers;
  replayer.Start(
      events, [](const Event&, size_t) {},
      [&](const std::string& label) {
        markers.emplace_back(label, sim.Now().micros());
      });
  sim.RunUntilIdle();
  EXPECT_EQ(markers, (std::vector<std::pair<std::string, int64_t>>{
                         {"M", 1000}, {"END", 2000}}));
  EXPECT_EQ(replayer.finished_at().micros(), 2000);
  ASSERT_EQ(replayer.delivery_times().size(), 3u);
  EXPECT_EQ(replayer.delivery_times()[2].micros(), 2000);
}

TEST(VirtualReplayerTest, MarkersReportedNotDelivered) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);
  std::vector<Event> events = VertexStream(3);
  events.insert(events.begin() + 1, Event::Marker("M"));
  size_t delivered = 0;
  std::vector<std::string> markers;
  replayer.Start(
      events, [&](const Event& e, size_t) {
        EXPECT_TRUE(IsGraphOp(e.type));
        ++delivered;
      },
      [&](const std::string& label) { markers.push_back(label); });
  sim.RunUntilIdle();
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(markers, (std::vector<std::string>{"M"}));
}

TEST(VirtualReplayerTest, DoneCallbackFiresOnce) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);
  int done_calls = 0;
  replayer.Start(VertexStream(10), [](const Event&, size_t) {},
                 nullptr, [&] { ++done_calls; });
  sim.RunUntilIdle();
  EXPECT_EQ(done_calls, 1);
  EXPECT_GT(replayer.finished_at().nanos(), 0);
}

TEST(VirtualReplayerTest, DeliveryTimesRecorded) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);
  replayer.Start(VertexStream(100), [](const Event&, size_t) {});
  sim.RunUntilIdle();
  const auto& times = replayer.delivery_times();
  ASSERT_EQ(times.size(), 100u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ((times[i] - times[i - 1]).micros(), 500);
  }
}

TEST(VirtualReplayerTest, EmptyStreamFinishesImmediately) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);
  bool done = false;
  replayer.Start({}, nullptr, nullptr, [&] { done = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(replayer.events_delivered(), 0u);
}

TEST(VirtualReplayerTest, IndicesMatchStreamOrder) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);
  std::vector<size_t> indices;
  replayer.Start(VertexStream(20),
                 [&](const Event&, size_t index) { indices.push_back(index); });
  sim.RunUntilIdle();
  for (size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
}


TEST(VirtualReplayerTest, GateThrottlesEmission) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);  // 1 ms spacing
  // Gate closed until t = 50 ms.
  replayer.SetGate([&sim] { return sim.Now() >= Timestamp::FromMillis(50); });
  std::vector<int64_t> times;
  replayer.Start(VertexStream(5),
                 [&](const Event&, size_t) { times.push_back(sim.Now().millis()); });
  sim.RunUntilIdle();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_GE(times[0], 50);
  // After the gate opens, pacing resumes at the base rate (no burst).
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_EQ(times[i] - times[i - 1], 1);
  }
  EXPECT_GE(replayer.throttled_time().millis(), 45);
  EXPECT_TRUE(replayer.finished());
}

TEST(VirtualReplayerTest, MarkerVisibleOnceItsPrecedingEventsApplied) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);  // 1 ms apart
  std::vector<Event> events = VertexStream(4);
  events.insert(events.begin() + 2, Event::Marker("A"));  // sent at 1 ms
  events.push_back(Event::Marker("B"));                   // sent at 3 ms
  replayer.Start(events, [](const Event&, size_t) {});
  sim.RunUntilIdle();
  EXPECT_EQ(replayer.PendingMarkerSends(),
            (std::vector<Timestamp>{Timestamp::FromMillis(1),
                                    Timestamp::FromMillis(3)}));

  // One event applied: A still waits for its second predecessor.
  replayer.ObserveApplied(1);
  EXPECT_TRUE(replayer.visible_markers().empty());

  sim.RunUntil(Timestamp::FromMillis(10));
  replayer.ObserveApplied(2);
  ASSERT_EQ(replayer.visible_markers().size(), 1u);
  EXPECT_EQ(replayer.visible_markers()[0].label, "A");
  EXPECT_EQ(replayer.visible_markers()[0].sent, Timestamp::FromMillis(1));
  EXPECT_EQ(replayer.visible_markers()[0].latency, Duration::FromMillis(9));
  EXPECT_EQ(replayer.PendingMarkerSends(),
            (std::vector<Timestamp>{Timestamp::FromMillis(3)}));

  sim.RunUntil(Timestamp::FromMillis(20));
  replayer.ObserveApplied(4);
  ASSERT_EQ(replayer.visible_markers().size(), 2u);
  EXPECT_EQ(replayer.visible_markers()[1].label, "B");
  EXPECT_EQ(replayer.visible_markers()[1].latency, Duration::FromMillis(17));
  EXPECT_TRUE(replayer.PendingMarkerSends().empty());
}

TEST(VirtualReplayerTest, OpenGateIsFree) {
  Simulator sim;
  VirtualReplayer replayer(&sim, 1000.0);
  replayer.SetGate([] { return true; });
  replayer.Start(VertexStream(10), [](const Event&, size_t) {});
  sim.RunUntilIdle();
  EXPECT_EQ(replayer.events_delivered(), 10u);
  EXPECT_EQ(replayer.throttled_time(), Duration::Zero());
}

}  // namespace
}  // namespace graphtides
