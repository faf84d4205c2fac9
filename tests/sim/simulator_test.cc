#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace graphtides {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now().nanos(), 0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, CallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Timestamp::FromMillis(30), [&] { order.push_back(3); });
  sim.ScheduleAt(Timestamp::FromMillis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(Timestamp::FromMillis(20), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now().millis(), 30);
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Timestamp::FromMillis(5), [&order, i] {
      order.push_back(i);
    });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EqualTimestampsFifoWithMoveOnlyAndLargeCaptures) {
  // Inline (small), heap-held (larger than SimCallback::kInlineSize) and
  // move-only captures interleave at one timestamp and still run in
  // scheduling order, including callbacks scheduled while others run.
  Simulator sim;
  std::vector<int> order;
  std::array<int64_t, 16> big{};
  big[15] = 7;
  static_assert(sizeof(big) > SimCallback::kInlineSize);
  for (int i = 0; i < 12; ++i) {
    switch (i % 3) {
      case 0:
        sim.ScheduleAt(Timestamp::FromMillis(5),
                       [&order, i] { order.push_back(i); });
        break;
      case 1:
        sim.ScheduleAt(Timestamp::FromMillis(5), [&order, i, big] {
          order.push_back(i + static_cast<int>(big[15]) - 7);
        });
        break;
      default:
        sim.ScheduleAt(Timestamp::FromMillis(5),
                       [&order, &sim, p = std::make_unique<int>(i)] {
                         order.push_back(*p);
                         // Scheduled at the same instant: runs after
                         // everything already queued for it.
                         sim.ScheduleAt(sim.Now(), [&order, v = *p + 100] {
                           order.push_back(v);
                         });
                       });
        break;
    }
  }
  sim.RunUntilIdle();
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                     102, 105, 108, 111};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.callbacks_executed(), 16u);
}

TEST(SimulatorTest, SlotReuseKeepsTimeOrder) {
  // Freed slots are reused for later events; order must follow (time,
  // scheduling order) only, never slot numbers.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Timestamp::FromMillis(1), [&] {
    order.push_back(1);
    sim.ScheduleAt(Timestamp::FromMillis(4), [&] { order.push_back(4); });
    sim.ScheduleAt(Timestamp::FromMillis(3), [&] { order.push_back(3); });
  });
  sim.ScheduleAt(Timestamp::FromMillis(2), [&] { order.push_back(2); });
  sim.ScheduleAt(Timestamp::FromMillis(4), [&] { order.push_back(40); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 40, 4}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimCallbackTest, EmptyTargetsYieldEmptyCallbacks) {
  EXPECT_FALSE(SimCallback());
  EXPECT_FALSE(SimCallback(nullptr));
  EXPECT_FALSE(SimCallback(std::function<void()>()));
  int calls = 0;
  SimCallback cb([&calls] { ++calls; });
  ASSERT_TRUE(cb);
  SimCallback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT: moved-from state is specified as empty
  moved();
  EXPECT_EQ(calls, 1);
}

TEST(SimulatorTest, ClockAdvancesToCallbackTime) {
  Simulator sim;
  Timestamp observed;
  sim.ScheduleAt(Timestamp::FromSeconds(2.5), [&] { observed = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(observed.seconds(), 2.5);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  std::vector<int64_t> times;
  sim.ScheduleAt(Timestamp::FromMillis(10), [&] {
    times.push_back(sim.Now().millis());
    sim.ScheduleAfter(Duration::FromMillis(5), [&] {
      times.push_back(sim.Now().millis());
    });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(times, (std::vector<int64_t>{10, 15}));
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim;
  sim.ScheduleAt(Timestamp::FromMillis(10), [&] {
    // Scheduling in the past runs "immediately" (at now), not backwards.
    sim.ScheduleAt(Timestamp::FromMillis(1), [&] {
      EXPECT_EQ(sim.Now().millis(), 10);
    });
  });
  sim.RunUntilIdle();
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(Timestamp::FromMillis(10), [&] { ++ran; });
  sim.ScheduleAt(Timestamp::FromMillis(20), [&] { ++ran; });
  sim.ScheduleAt(Timestamp::FromMillis(30), [&] { ++ran; });
  sim.RunUntil(Timestamp::FromMillis(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now().millis(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntilIdle();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutWork) {
  Simulator sim;
  sim.RunUntil(Timestamp::FromSeconds(100.0));
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 100.0);
}

TEST(SimulatorTest, StepExecutesOne) {
  Simulator sim;
  int ran = 0;
  sim.ScheduleAt(Timestamp::FromMillis(1), [&] { ++ran; });
  sim.ScheduleAt(Timestamp::FromMillis(2), [&] { ++ran; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.callbacks_executed(), 2u);
}

TEST(SimulatorTest, CascadingCallbacksAllRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sim.ScheduleAfter(Duration::FromMicros(10), recurse);
    }
  };
  sim.ScheduleAt(Timestamp(), recurse);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now().micros(), 99 * 10);
}

TEST(SimulatorTest, RunSampledReturnsFirstDrainedInstant) {
  Simulator sim;
  std::vector<int64_t> ticks;
  const std::optional<Timestamp> drained = sim.RunSampled(
      Duration::FromMillis(10), Timestamp::FromMillis(100), [&] {
        ticks.push_back(sim.Now().millis());
        return sim.Now() >= Timestamp::FromMillis(30);
      });
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->millis(), 30);
  // No tick after the one that reported drained.
  EXPECT_EQ(ticks, (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(sim.Now().millis(), 100);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, RunSampledNeverDrainedStopsAtDeadline) {
  Simulator sim;
  std::vector<int64_t> ticks;
  const std::optional<Timestamp> drained = sim.RunSampled(
      Duration::FromMillis(30), Timestamp::FromMillis(100), [&] {
        ticks.push_back(sim.Now().millis());
        return false;
      });
  EXPECT_FALSE(drained.has_value());
  // Never past the deadline: the tick at 120 ms does not run.
  EXPECT_EQ(ticks, (std::vector<int64_t>{30, 60, 90}));
  EXPECT_EQ(sim.Now().millis(), 100);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, RunSampledTicksAtDeadlineAndRunsOtherWork) {
  Simulator sim;
  int work = 0;
  sim.ScheduleAt(Timestamp::FromMillis(15), [&] { ++work; });
  sim.ScheduleAt(Timestamp::FromMillis(150), [&] { ++work; });
  std::vector<int64_t> ticks;
  const std::optional<Timestamp> drained = sim.RunSampled(
      Duration::FromMillis(50), Timestamp::FromMillis(100), [&] {
        ticks.push_back(sim.Now().millis());
        return false;
      });
  EXPECT_FALSE(drained.has_value());
  EXPECT_EQ(ticks, (std::vector<int64_t>{50, 100}));
  // Work up to the deadline ran; later work stays queued.
  EXPECT_EQ(work, 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.Now().millis(), 100);
}

}  // namespace
}  // namespace graphtides
