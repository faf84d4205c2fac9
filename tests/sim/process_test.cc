#include "sim/process.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(SimProcessTest, WorkCompletesAfterCost) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  Timestamp done;
  proc.Submit(Duration::FromMillis(10), [&] { done = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(done.millis(), 10);
  EXPECT_EQ(proc.total_busy().millis(), 10);
}

TEST(SimProcessTest, WorkIsSerialized) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  std::vector<int64_t> completions;
  for (int i = 0; i < 3; ++i) {
    proc.Submit(Duration::FromMillis(10),
                [&] { completions.push_back(sim.Now().millis()); });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(completions, (std::vector<int64_t>{10, 20, 30}));
}

TEST(SimProcessTest, BacklogReflectsQueuedWork) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  EXPECT_EQ(proc.Backlog(), Duration::Zero());
  proc.Submit(Duration::FromMillis(10), [] {});
  proc.Submit(Duration::FromMillis(5), [] {});
  EXPECT_EQ(proc.Backlog().millis(), 15);
  sim.RunUntilIdle();
  EXPECT_EQ(proc.Backlog(), Duration::Zero());
}

TEST(SimProcessTest, LaterSubmissionStartsAtNow) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  proc.Submit(Duration::FromMillis(10), [] {});
  sim.RunUntilIdle();
  sim.RunUntil(Timestamp::FromMillis(100));
  Timestamp done;
  proc.Submit(Duration::FromMillis(5), [&] { done = sim.Now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(done.millis(), 105);
  // Idle gap (10..100 ms) is not accounted as busy.
  EXPECT_EQ(proc.total_busy().millis(), 15);
}

TEST(SimProcessTest, UtilizationFullySaturated) {
  Simulator sim;
  SimProcess proc(&sim, "p", Duration::FromSeconds(1.0));
  // 5 seconds of back-to-back work.
  for (int i = 0; i < 5; ++i) {
    proc.Submit(Duration::FromSeconds(1.0), [] {});
  }
  sim.RunUntilIdle();
  const auto series = proc.UtilizationSeries(Timestamp::FromSeconds(5.0));
  ASSERT_EQ(series.size(), 5u);
  for (double u : series) EXPECT_NEAR(u, 1.0, 1e-9);
}

TEST(SimProcessTest, UtilizationPartialLoad) {
  Simulator sim;
  SimProcess proc(&sim, "p", Duration::FromSeconds(1.0));
  // 0.3 s of work at the start of each of 4 seconds.
  for (int s = 0; s < 4; ++s) {
    sim.ScheduleAt(Timestamp::FromSeconds(s), [&] {
      proc.Submit(Duration::FromMillis(300), [] {});
    });
  }
  sim.RunUntilIdle();
  const auto series = proc.UtilizationSeries(Timestamp::FromSeconds(4.0));
  ASSERT_EQ(series.size(), 4u);
  for (double u : series) EXPECT_NEAR(u, 0.3, 1e-9);
}

TEST(SimProcessTest, BusyIntervalSpanningBins) {
  Simulator sim;
  SimProcess proc(&sim, "p", Duration::FromSeconds(1.0));
  sim.ScheduleAt(Timestamp::FromMillis(500), [&] {
    proc.Submit(Duration::FromSeconds(1.0), [] {});  // spans 0.5..1.5 s
  });
  sim.RunUntilIdle();
  const auto series = proc.UtilizationSeries(Timestamp::FromSeconds(2.0));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series[0], 0.5, 1e-9);
  EXPECT_NEAR(series[1], 0.5, 1e-9);
}

TEST(SimProcessTest, UtilizationSeriesEmptyBeforeEpoch) {
  Simulator sim;
  sim.RunUntil(Timestamp::FromSeconds(10.0));
  SimProcess proc(&sim, "p");
  EXPECT_TRUE(proc.UtilizationSeries(Timestamp::FromSeconds(5.0)).empty());
}

TEST(SimProcessTest, CompletionCallbacksInterleaveCorrectly) {
  // Two processes run independently; a third submission chains off a
  // completion.
  Simulator sim;
  SimProcess a(&sim, "a");
  SimProcess b(&sim, "b");
  std::vector<std::string> log;
  a.Submit(Duration::FromMillis(10), [&] {
    log.push_back("a@" + std::to_string(sim.Now().millis()));
    b.Submit(Duration::FromMillis(10), [&] {
      log.push_back("b@" + std::to_string(sim.Now().millis()));
    });
  });
  b.Submit(Duration::FromMillis(4), [&] {
    log.push_back("b0@" + std::to_string(sim.Now().millis()));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<std::string>{"b0@4", "a@10", "b@20"}));
}

TEST(SimProcessTest, KillSuppressesInFlightCompletions) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  int completed = 0;
  proc.Submit(Duration::FromMillis(10), [&] { ++completed; });
  proc.Submit(Duration::FromMillis(10), [&] { ++completed; });
  sim.ScheduleAt(Timestamp::FromMillis(5), [&] { proc.Kill(); });
  sim.RunUntilIdle();
  EXPECT_EQ(completed, 0);
  EXPECT_FALSE(proc.alive());
  EXPECT_EQ(proc.kills(), 1u);
}

TEST(SimProcessTest, SubmissionsToDeadProcessAreDropped) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  proc.Kill();
  int completed = 0;
  proc.Submit(Duration::FromMillis(10), [&] { ++completed; });
  proc.Submit(Duration::FromMillis(10), [&] { ++completed; });
  sim.RunUntilIdle();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(proc.lost_submissions(), 2u);
}

TEST(SimProcessTest, RecoverAcceptsNewWorkWithEmptyQueue) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  // 100ms of queued work, killed at 5ms: the backlog must not delay work
  // submitted after recovery.
  for (int i = 0; i < 10; ++i) proc.Submit(Duration::FromMillis(10), [] {});
  sim.ScheduleAt(Timestamp::FromMillis(5), [&] { proc.Kill(); });
  sim.ScheduleAt(Timestamp::FromMillis(25), [&] { proc.Recover(); });
  Timestamp done;
  sim.ScheduleAt(Timestamp::FromMillis(30), [&] {
    proc.Submit(Duration::FromMillis(10), [&] { done = sim.Now(); });
  });
  sim.RunUntilIdle();
  EXPECT_TRUE(proc.alive());
  EXPECT_EQ(done.millis(), 40);
  EXPECT_EQ(proc.downtime().millis(), 20);
}

TEST(SimProcessTest, KillRollsBackChargedUtilization) {
  Simulator sim;
  SimProcess proc(&sim, "p", Duration::FromSeconds(1.0));
  // 4s of work charged at submit time; killed at 1s — only the first
  // second was actually spent.
  for (int i = 0; i < 4; ++i) proc.Submit(Duration::FromSeconds(1.0), [] {});
  sim.ScheduleAt(Timestamp::FromSeconds(1.0), [&] { proc.Kill(); });
  sim.RunUntilIdle();
  EXPECT_EQ(proc.total_busy().millis(), 1000);
  const auto series = proc.UtilizationSeries(Timestamp::FromSeconds(4.0));
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[0], 1.0, 1e-9);
  EXPECT_NEAR(series[1], 0.0, 1e-9);
  EXPECT_NEAR(series[2], 0.0, 1e-9);
  EXPECT_NEAR(series[3], 0.0, 1e-9);
}

TEST(SimProcessTest, WorkAfterRecoveryCompletesNormally) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  int pre = 0;
  int post = 0;
  proc.Submit(Duration::FromMillis(10), [&] { ++pre; });
  proc.Kill();
  proc.Recover();
  proc.Submit(Duration::FromMillis(10), [&] { ++post; });
  sim.RunUntilIdle();
  // The pre-kill completion was suppressed by the generation bump; the
  // post-recovery one ran.
  EXPECT_EQ(pre, 0);
  EXPECT_EQ(post, 1);
  EXPECT_EQ(proc.lost_submissions(), 0u);
}

TEST(SimProcessTest, KillRecoverSubmitRunsOnlyNewCompletionsInOrder) {
  // Stale completions from before the kill stay suppressed even when their
  // events fire after the recovery; work submitted afterwards completes in
  // submission order, including zero-cost work at the same instant.
  Simulator sim;
  SimProcess proc(&sim, "p");
  std::vector<std::string> log;
  for (int i = 0; i < 3; ++i) {
    proc.Submit(Duration::FromMillis(10), [&log, i] {
      log.push_back("old" + std::to_string(i));
    });
  }
  sim.ScheduleAt(Timestamp::FromMillis(5), [&] {
    proc.Kill();
    proc.Recover();
    proc.Submit(Duration::FromMillis(20), [&] {
      log.push_back("new0@" + std::to_string(sim.Now().millis()));
    });
    proc.Submit(Duration::Zero(), [&] {
      log.push_back("new1@" + std::to_string(sim.Now().millis()));
      proc.Submit(Duration::FromMillis(1), [&] {
        log.push_back("new3@" + std::to_string(sim.Now().millis()));
      });
    });
    proc.Submit(Duration::FromMillis(5), [&] {
      log.push_back("new2@" + std::to_string(sim.Now().millis()));
    });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(log, (std::vector<std::string>{"new0@25", "new1@25", "new2@30",
                                           "new3@31"}));
  EXPECT_EQ(proc.kills(), 1u);
}

TEST(SimProcessTest, KillAndRecoverAreIdempotent) {
  Simulator sim;
  SimProcess proc(&sim, "p");
  proc.Recover();  // no-op while alive
  EXPECT_TRUE(proc.alive());
  proc.Kill();
  proc.Kill();  // no-op while dead
  EXPECT_EQ(proc.kills(), 1u);
  proc.Recover();
  EXPECT_TRUE(proc.alive());
}

}  // namespace
}  // namespace graphtides
