#include "harness/run_watchdog.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <utility>

namespace graphtides {
namespace {

WatchdogOptions FastOptions(double deadline_ms) {
  WatchdogOptions options;
  options.stall_deadline = Duration::FromMillis(static_cast<int64_t>(deadline_ms));
  options.poll_interval = Duration::FromMillis(2);
  return options;
}

// A poll interval no test outlasts: the poll thread stays idle, so the
// test alone drives Check() with its own timestamps.
WatchdogOptions IdleOptions(int64_t deadline_ms) {
  WatchdogOptions options;
  options.stall_deadline = Duration::FromMillis(deadline_ms);
  options.poll_interval = Duration::FromSeconds(3600.0);
  return options;
}

TEST(RunWatchdogTest, FiresOnceOnStalledProgress) {
  RunWatchdog watchdog(FastOptions(40));
  std::promise<std::pair<uint64_t, Duration>> hang;
  watchdog.Arm([] { return 123u; },  // constant: never advances
               [&](uint64_t last, Duration stalled) {
                 hang.set_value({last, stalled});  // a second call throws
               });
  // The poll thread, not the test, must notice the stall.
  auto fired = hang.get_future();
  ASSERT_EQ(fired.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  const auto [last, stalled] = fired.get();
  EXPECT_EQ(last, 123u);
  EXPECT_GE(stalled, Duration::FromMillis(40));
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(watchdog.last_progress(), 123u);
  watchdog.Disarm();
}

TEST(RunWatchdogTest, FiresExactlyOnceAtTheStallDeadline) {
  VirtualClock clock;
  clock.AdvanceTo(Timestamp::FromSeconds(5.0));
  const Timestamp t0 = clock.Now();
  RunWatchdog watchdog(IdleOptions(40), &clock);
  int fires = 0;
  uint64_t reported = 0;
  Duration reported_stall;
  watchdog.Arm([] { return 123u; },
               [&](uint64_t last, Duration stalled) {
                 ++fires;
                 reported = last;
                 reported_stall = stalled;
               });
  const Duration deadline = Duration::FromMillis(40);
  EXPECT_FALSE(watchdog.Check(123, t0 + deadline - Duration::FromNanos(1)));
  EXPECT_FALSE(watchdog.fired());
  EXPECT_EQ(fires, 0);

  EXPECT_TRUE(watchdog.Check(123, t0 + deadline));
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(reported, 123u);
  EXPECT_EQ(reported_stall, deadline);

  // Hung stays hung, and the action does not fire again, even if progress
  // resumes.
  EXPECT_TRUE(watchdog.Check(123, t0 + deadline * 10));
  EXPECT_TRUE(watchdog.Check(124, t0 + deadline * 11));
  EXPECT_EQ(fires, 1);
  watchdog.Disarm();
}

TEST(RunWatchdogTest, DoesNotFireWhileProgressAdvances) {
  VirtualClock clock;
  const Timestamp t0 = clock.Now();
  RunWatchdog watchdog(IdleOptions(50), &clock);
  int fires = 0;
  watchdog.Arm([] { return 0u; }, [&](uint64_t, Duration) { ++fires; });
  // One step every 49 ms: each lands just inside the deadline measured
  // from the previous change.
  const Duration step = Duration::FromMillis(49);
  Timestamp now = t0;
  for (uint64_t progress = 1; progress <= 1000; ++progress) {
    now = now + step;
    EXPECT_FALSE(watchdog.Check(progress, now));
  }
  EXPECT_FALSE(watchdog.Check(1000, now + step));
  EXPECT_FALSE(watchdog.fired());
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(watchdog.last_progress(), 1000u);
  // The stall clock restarted at the last change, not at Arm.
  EXPECT_TRUE(watchdog.Check(1000, now + Duration::FromMillis(50)));
  EXPECT_EQ(fires, 1);
  watchdog.Disarm();
}

TEST(RunWatchdogTest, DisarmReturnsPromptlyWithLongDeadline) {
  RunWatchdog watchdog(FastOptions(30000));
  watchdog.Arm([] { return 0u; }, [](uint64_t, Duration) {});
  const auto start = std::chrono::steady_clock::now();
  watchdog.Disarm();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Disarm must not wait out the 30s deadline (or even one poll tick's
  // worth of slack beyond scheduling noise).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);
  EXPECT_FALSE(watchdog.fired());
}

TEST(RunWatchdogTest, DisarmIsIdempotent) {
  RunWatchdog watchdog(FastOptions(40));
  watchdog.Arm([] { return 0u; }, [](uint64_t, Duration) {});
  watchdog.Disarm();
  watchdog.Disarm();  // no crash, no hang
}

TEST(RunWatchdogTest, ReusableAcrossRuns) {
  VirtualClock clock;
  RunWatchdog watchdog(IdleOptions(40), &clock);
  const Duration deadline = Duration::FromMillis(40);

  // First run hangs; the verdict stays observable after Disarm.
  int fires = 0;
  watchdog.Arm([] { return 7u; }, [&](uint64_t, Duration) { ++fires; });
  EXPECT_TRUE(watchdog.Check(7, clock.Now() + deadline));
  watchdog.Disarm();
  EXPECT_TRUE(watchdog.fired());
  EXPECT_EQ(fires, 1);

  // Second run: re-arming resets the verdict and restarts the stall clock
  // at the new Arm, from the probe's value then.
  clock.Advance(Duration::FromSeconds(1.0));
  const Timestamp t1 = clock.Now();
  watchdog.Arm([] { return 9u; }, [&](uint64_t, Duration) { ++fires; });
  EXPECT_FALSE(watchdog.fired());
  EXPECT_EQ(watchdog.last_progress(), 9u);
  EXPECT_FALSE(watchdog.Check(9, t1 + deadline - Duration::FromNanos(1)));
  EXPECT_FALSE(watchdog.fired());
  EXPECT_TRUE(watchdog.Check(9, t1 + deadline));
  EXPECT_EQ(fires, 2);
  watchdog.Disarm();
}

TEST(RunWatchdogTest, DestructorDisarms) {
  int fires = 0;
  {
    RunWatchdog watchdog(FastOptions(30000));
    watchdog.Arm([] { return 0u; }, [&](uint64_t, Duration) { ++fires; });
    // Falling out of scope must join the poll thread without firing.
  }
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace graphtides
