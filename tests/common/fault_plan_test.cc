// FaultPlan spec parsing, crash-point hit counting, and the file-sink
// write-fault gate. Crash actions are intercepted with set_crash_fn — the
// real SIGKILL path is exercised by the crash-window tests and gt_chaos.
#include "common/fault_plan.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "replayer/event_sink.h"
#include "stream/event.h"

namespace graphtides {
namespace {

// Tests share the process-global plan; every test starts and ends clean.
class FaultPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultPlan::Global().Reset();
    ::unsetenv("GT_FAULT_PLAN");
    ::unsetenv("GT_CRASH_AT");
  }
  void TearDown() override {
    FaultPlan::Global().Reset();
    ::unsetenv("GT_FAULT_PLAN");
    ::unsetenv("GT_CRASH_AT");
  }
};

TEST_F(FaultPlanTest, DisarmedByDefaultAndHitIsFree) {
  FaultPlan& plan = FaultPlan::Global();
  EXPECT_FALSE(plan.armed());
  plan.Hit(kCrashPostDelivery);  // must be a no-op, not a crash
  EXPECT_EQ(plan.hits_observed(), 0u);
}

TEST_F(FaultPlanTest, CrashFiresOnExactHitCountOnce) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("crash=post-delivery:3").ok());
  ASSERT_TRUE(plan.armed());
  std::vector<std::string> fired;
  plan.set_crash_fn(
      [&](std::string_view point) { fired.emplace_back(point); });

  plan.Hit(kCrashPostDelivery);
  plan.Hit(kCrashPostDelivery);
  EXPECT_TRUE(fired.empty());
  plan.Hit(kCrashPostDelivery);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], "post-delivery");
  // The entry is spent: later hits never re-fire.
  plan.Hit(kCrashPostDelivery);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(plan.hits_observed(), 4u);
}

TEST_F(FaultPlanTest, HitsOnOtherPointsDoNotTrigger) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("crash=epoch-barrier").ok());
  bool fired = false;
  plan.set_crash_fn([&](std::string_view) { fired = true; });
  plan.Hit(kCrashPostDelivery);
  plan.Hit(kCrashPreCheckpointRename);
  EXPECT_FALSE(fired);
  plan.Hit(kCrashEpochBarrier);
  EXPECT_TRUE(fired);
}

TEST_F(FaultPlanTest, UnknownCrashPointListsKnownOnes) {
  Status st = FaultPlan::Global().Configure("crash=bogus-point");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("post-delivery"), std::string::npos);
  EXPECT_NE(st.message().find("epoch-barrier"), std::string::npos);
}

TEST_F(FaultPlanTest, MalformedSpecsAreRejected) {
  FaultPlan& plan = FaultPlan::Global();
  EXPECT_FALSE(plan.Configure("post-delivery").ok());      // no key=
  EXPECT_FALSE(plan.Configure("crash=post-delivery:0").ok());
  EXPECT_FALSE(plan.Configure("crash=post-delivery:x").ok());
  EXPECT_FALSE(plan.Configure("short-write=0").ok());
  EXPECT_FALSE(plan.Configure("mystery=1").ok());
  // torn= only makes sense where a checkpoint is being published.
  EXPECT_FALSE(plan.Configure("torn=post-delivery").ok());
  EXPECT_TRUE(plan.Configure("torn=pre-checkpoint-rename").ok());
}

TEST_F(FaultPlanTest, EmptySpecLeavesPlanDisarmed) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("").ok());
  ASSERT_TRUE(plan.Configure("  ").ok());
  EXPECT_FALSE(plan.armed());
}

TEST_F(FaultPlanTest, ConfiguresFromCrashAtEnvironment) {
  ::setenv("GT_CRASH_AT", "post-checkpoint:2, epoch-barrier", 1);
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.ConfigureFromEnv().ok());
  ASSERT_TRUE(plan.armed());
  size_t fired = 0;
  plan.set_crash_fn([&](std::string_view) { ++fired; });
  plan.Hit(kCrashPostCheckpoint);
  EXPECT_EQ(fired, 0u);
  plan.Hit(kCrashPostCheckpoint);
  EXPECT_EQ(fired, 1u);
  plan.Hit(kCrashEpochBarrier);
  EXPECT_EQ(fired, 2u);
}

TEST_F(FaultPlanTest, ConfiguresFromFaultPlanEnvironment) {
  ::setenv("GT_FAULT_PLAN", "fail=3,fail=7,seed=9", 1);
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.ConfigureFromEnv().ok());
  EXPECT_EQ(plan.delivery_fail_points(),
            (std::vector<uint64_t>{3, 7}));
}

TEST_F(FaultPlanTest, BadEnvironmentSpecSurfacesContext) {
  ::setenv("GT_CRASH_AT", "nonsense-point", 1);
  Status st = FaultPlan::Global().ConfigureFromEnv();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("GT_CRASH_AT"), std::string::npos);
}

TEST_F(FaultPlanTest, ConfiguresFromFlagsOnTopOfTheEnvironment) {
  ::setenv("GT_FAULT_PLAN", "fail=3", 1);
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.ConfigureFromFlags("fail=7", " post-checkpoint:2,").ok());
  EXPECT_EQ(plan.delivery_fail_points(), (std::vector<uint64_t>{3, 7}));
  size_t fired = 0;
  plan.set_crash_fn([&](std::string_view) { ++fired; });
  plan.Hit(kCrashPostCheckpoint);
  plan.Hit(kCrashPostCheckpoint);
  EXPECT_EQ(fired, 1u);

  FaultPlan scratch;
  ::unsetenv("GT_FAULT_PLAN");
  EXPECT_TRUE(scratch.ConfigureFromFlags("", "").ok());
  EXPECT_FALSE(scratch.armed());
  EXPECT_FALSE(scratch.ConfigureFromFlags("", "bogus").ok());
}

TEST_F(FaultPlanTest, TornCheckpointYieldsProperPrefixFraction) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("torn=pre-checkpoint-rename:1,seed=42").ok());
  double keep = -1.0;
  ASSERT_TRUE(plan.TornCheckpointAt(kCrashPreCheckpointRename, &keep));
  EXPECT_GT(keep, 0.0);
  EXPECT_LT(keep, 1.0);
  // Spent after firing, and never applies to other points.
  double again = -1.0;
  EXPECT_FALSE(plan.TornCheckpointAt(kCrashPreCheckpointRename, &again));
  EXPECT_FALSE(plan.TornCheckpointAt(kCrashPostCheckpoint, &again));
}

TEST_F(FaultPlanTest, TornFractionIsDeterministicPerSeed) {
  double first = -1.0;
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("torn=post-checkpoint,seed=7").ok());
  ASSERT_TRUE(plan.TornCheckpointAt(kCrashPostCheckpoint, &first));
  plan.Reset();
  double second = -1.0;
  ASSERT_TRUE(plan.Configure("torn=post-checkpoint,seed=7").ok());
  ASSERT_TRUE(plan.TornCheckpointAt(kCrashPostCheckpoint, &second));
  EXPECT_DOUBLE_EQ(first, second);
}

TEST_F(FaultPlanTest, EnospcBudgetLatchesAfterExhaustion) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("enospc=100").ok());
  size_t allowed = 0;
  std::string error;
  // Within budget: writes pass untouched.
  EXPECT_FALSE(plan.ClipFileWrite(60, &allowed, &error));
  // 60 spent; the next 60-byte write overruns — a partial 40 bytes land.
  ASSERT_TRUE(plan.ClipFileWrite(60, &allowed, &error));
  EXPECT_EQ(allowed, 40u);
  EXPECT_NE(error.find("ENOSPC"), std::string::npos);
  // Latched: everything after fails outright with nothing written.
  ASSERT_TRUE(plan.ClipFileWrite(10, &allowed, &error));
  EXPECT_EQ(allowed, 0u);
  EXPECT_EQ(plan.write_faults_fired(), 1u);
}

TEST_F(FaultPlanTest, ShortWriteFiresOnTheNthWriteOnly) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("short-write=3").ok());
  size_t allowed = 0;
  std::string error;
  EXPECT_FALSE(plan.ClipFileWrite(100, &allowed, &error));
  EXPECT_FALSE(plan.ClipFileWrite(100, &allowed, &error));
  ASSERT_TRUE(plan.ClipFileWrite(100, &allowed, &error));
  EXPECT_EQ(allowed, 50u);  // half the bytes land, then the error
  EXPECT_NE(error.find("short write"), std::string::npos);
  ASSERT_TRUE(plan.ClipFileWrite(100, &allowed, &error));  // latched
  EXPECT_EQ(allowed, 0u);
  EXPECT_EQ(plan.write_faults_fired(), 1u);
}

TEST_F(FaultPlanTest, PipeSinkSurfacesInjectedWriteFaults) {
  // The gate is wired into PipeSink::WriteBytes: a short write lands its
  // partial bytes, reports IoError, and byte accounting reflects only what
  // actually reached the stream.
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("short-write=1").ok());
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  PipeSink sink(f);
  const Event event = Event::AddVertex(42, "payload");
  Status st = sink.Deliver(event);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIoError());
  EXPECT_NE(st.message().find("short write"), std::string::npos);
  EXPECT_GT(sink.bytes_delivered(), 0u);
  EXPECT_LT(sink.bytes_delivered(), event.ToCsvLine().size());
  std::fclose(f);
}

TEST_F(FaultPlanTest, ResetDisarmsAndClearsCounters) {
  FaultPlan& plan = FaultPlan::Global();
  ASSERT_TRUE(plan.Configure("crash=post-delivery:100,enospc=0").ok());
  plan.set_crash_fn([](std::string_view) {});
  plan.Hit(kCrashPostDelivery);
  size_t allowed = 0;
  std::string error;
  ASSERT_TRUE(plan.ClipFileWrite(1, &allowed, &error));
  EXPECT_GT(plan.hits_observed(), 0u);
  EXPECT_GT(plan.write_faults_fired(), 0u);

  plan.Reset();
  EXPECT_FALSE(plan.armed());
  EXPECT_EQ(plan.hits_observed(), 0u);
  EXPECT_EQ(plan.write_faults_fired(), 0u);
  EXPECT_FALSE(plan.ClipFileWrite(1, &allowed, &error));
}

TEST_F(FaultPlanTest, KnownCrashPointsCoverTheCompiledSites) {
  const auto& points = FaultPlan::KnownCrashPoints();
  ASSERT_EQ(points.size(), 9u);
  for (const std::string_view expected :
       {kCrashPostDelivery, kCrashMidCheckpointWrite,
        kCrashPreCheckpointRename, kCrashPostCheckpoint, kCrashEpochBarrier,
        kCrashCoordPostAssign, kCrashCoordEpochRelease, kCrashWorkerPostHello,
        kCrashWorkerEpochReport}) {
    bool found = false;
    for (const std::string_view p : points) {
      if (p == expected) found = true;
    }
    EXPECT_TRUE(found) << expected;
  }
}

}  // namespace
}  // namespace graphtides
