#include "harness/capacity/capacity_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "harness/capacity/window_probe.h"
#include "harness/telemetry/run_telemetry.h"

namespace graphtides {
namespace {

// Synthetic SUT with a hard capacity knee: below `capacity` the latency is
// flat and comfortable; above it the p99 blows past the SLO. Driving the
// search against this model makes every decision deterministic.
CapacityWindow SimWindow(double rate, double capacity, double slo_ms) {
  CapacityWindow w;
  w.samples = 100;
  if (rate <= capacity) {
    w.p50_ms = 1.0;
    w.p99_ms = 2.0;
  } else {
    w.p50_ms = slo_ms * 2.0;
    w.p99_ms = slo_ms * 4.0;
  }
  w.achieved_rate_eps = std::min(rate, capacity);
  return w;
}

std::vector<double> Drive(CapacitySearch& search, double capacity) {
  while (!search.done()) {
    search.ReportWindow(SimWindow(search.current_rate_eps(), capacity,
                                  search.options().slo_p99_ms));
  }
  return search.StepSchedule();
}

TEST(CapacitySearchTest, BracketingRampsGeometricallyToSustainedCap) {
  CapacitySearchOptions opt;
  opt.start_rate_eps = 1000.0;
  opt.growth = 2.0;
  opt.max_rate_eps = 16000.0;
  opt.windows_per_step = 1;
  opt.confirm_violations = 1;
  CapacitySearch search(opt);
  const std::vector<double> schedule = Drive(search, 1e9);

  const std::vector<double> expected = {1000, 2000, 4000, 8000, 16000};
  EXPECT_EQ(schedule, expected);
  EXPECT_TRUE(search.converged());
  EXPECT_DOUBLE_EQ(search.sustainable_rate_eps(), 16000.0);
  for (const CapacityStep& step : search.steps()) {
    EXPECT_EQ(step.phase, CapacityPhase::kBracketing);
    EXPECT_FALSE(step.violated);
  }
}

TEST(CapacitySearchTest, BisectionConvergesWithinResolution) {
  CapacitySearchOptions opt;
  opt.start_rate_eps = 1000.0;
  opt.growth = 2.0;
  opt.max_rate_eps = 1e6;
  opt.resolution = 0.05;
  opt.windows_per_step = 1;
  opt.confirm_violations = 1;
  CapacitySearch search(opt);
  const double capacity = 5000.0;
  Drive(search, capacity);

  ASSERT_TRUE(search.done());
  EXPECT_TRUE(search.converged());
  // The bracket straddles the true knee and is at most resolution wide.
  EXPECT_LE(search.sustainable_rate_eps(), capacity);
  EXPECT_GT(search.first_violating_rate_eps(), capacity);
  EXPECT_LE(search.first_violating_rate_eps() - search.sustainable_rate_eps(),
            opt.resolution * search.first_violating_rate_eps());
  // Phases transition bracketing -> refining exactly once.
  bool refining_seen = false;
  for (const CapacityStep& step : search.steps()) {
    if (step.phase == CapacityPhase::kRefining) refining_seen = true;
    if (refining_seen) {
      EXPECT_EQ(step.phase, CapacityPhase::kRefining);
    }
  }
  EXPECT_TRUE(refining_seen);
}

TEST(CapacitySearchTest, RefinementFindsCapacityFarBelowStartRate) {
  // Capacity two orders of magnitude under the start rate: the first step
  // violates, and refinement halves its way down until it brackets the
  // knee — the search still converges, it never needs a sustained
  // bracketing step first.
  CapacitySearchOptions opt;
  opt.start_rate_eps = 1000.0;
  opt.windows_per_step = 1;
  opt.confirm_violations = 1;
  CapacitySearch search(opt);
  Drive(search, 10.0);

  ASSERT_TRUE(search.done());
  EXPECT_TRUE(search.converged());
  EXPECT_GT(search.sustainable_rate_eps(), 0.0);
  EXPECT_LE(search.sustainable_rate_eps(), 10.0);
  EXPECT_GT(search.first_violating_rate_eps(), 10.0);
}

TEST(CapacitySearchTest, NothingSustainedStopsOnStepBudget) {
  // A SUT that violates at every positive rate: lo_ never moves off zero,
  // the relative stop width can never be met, and the max_steps budget
  // ends the search unconverged with sustainable 0.
  CapacitySearchOptions opt;
  opt.start_rate_eps = 1000.0;
  opt.windows_per_step = 1;
  opt.confirm_violations = 1;
  opt.max_steps = 16;
  CapacitySearch search(opt);
  Drive(search, 0.0);

  ASSERT_TRUE(search.done());
  EXPECT_FALSE(search.converged());
  EXPECT_DOUBLE_EQ(search.sustainable_rate_eps(), 0.0);
  EXPECT_EQ(search.steps().size(), 16u);
}

TEST(CapacitySearchTest, HysteresisOneNoisyWindowDoesNotFlipStep) {
  CapacitySearchOptions opt;
  opt.slo_p99_ms = 100.0;
  opt.windows_per_step = 3;
  opt.confirm_violations = 2;
  CapacitySearch search(opt);
  const double rate = search.current_rate_eps();

  CapacityWindow bad;
  bad.samples = 10;
  bad.p99_ms = 500.0;
  CapacityWindow good;
  good.samples = 10;
  good.p99_ms = 5.0;

  EXPECT_FALSE(search.ReportWindow(bad));
  EXPECT_FALSE(search.ReportWindow(good));
  EXPECT_TRUE(search.ReportWindow(good));  // step concludes on window 3
  ASSERT_EQ(search.steps().size(), 1u);
  EXPECT_FALSE(search.steps()[0].violated);
  EXPECT_EQ(search.steps()[0].violations, 1);
  EXPECT_GT(search.current_rate_eps(), rate);  // ramp continued
}

TEST(CapacitySearchTest, EarlyConclusionOnceViolationConfirmed) {
  CapacitySearchOptions opt;
  opt.slo_p99_ms = 100.0;
  opt.windows_per_step = 3;
  opt.confirm_violations = 2;
  CapacitySearch search(opt);

  CapacityWindow bad;
  bad.samples = 10;
  bad.p99_ms = 500.0;
  EXPECT_FALSE(search.ReportWindow(bad));
  // Second violation confirms; the third window is never demanded.
  EXPECT_TRUE(search.ReportWindow(bad));
  ASSERT_EQ(search.steps().size(), 1u);
  EXPECT_TRUE(search.steps()[0].violated);
  EXPECT_EQ(search.steps()[0].windows, 2);
  EXPECT_EQ(search.phase(), CapacityPhase::kRefining);
}

TEST(CapacitySearchTest, EarlyConclusionWhenConfirmationImpossible) {
  CapacitySearchOptions opt;
  opt.windows_per_step = 5;
  opt.confirm_violations = 3;
  CapacitySearch search(opt);

  CapacityWindow good;
  good.samples = 10;
  good.p99_ms = 1.0;
  EXPECT_FALSE(search.ReportWindow(good));
  EXPECT_FALSE(search.ReportWindow(good));
  // After 3 clean windows only 2 remain: 3 violations can never accrue.
  EXPECT_TRUE(search.ReportWindow(good));
  ASSERT_EQ(search.steps().size(), 1u);
  EXPECT_FALSE(search.steps()[0].violated);
  EXPECT_EQ(search.steps()[0].windows, 3);
}

TEST(CapacitySearchTest, ZeroSampleWindowCountsWithinSlo) {
  CapacitySearchOptions opt;
  opt.windows_per_step = 1;
  opt.confirm_violations = 1;
  CapacitySearch search(opt);

  CapacityWindow idle;
  idle.samples = 0;
  idle.p99_ms = 1e9;  // must be ignored: no signal means no violation
  EXPECT_TRUE(search.ReportWindow(idle));
  ASSERT_EQ(search.steps().size(), 1u);
  EXPECT_FALSE(search.steps()[0].violated);
  EXPECT_DOUBLE_EQ(search.steps()[0].mean_p99_ms, 0.0);
}

TEST(CapacitySearchTest, StepScheduleDeterministicAcrossRuns) {
  CapacitySearchOptions opt;
  opt.start_rate_eps = 1000.0;
  opt.windows_per_step = 2;
  opt.confirm_violations = 1;
  CapacitySearch a(opt);
  CapacitySearch b(opt);
  const std::vector<double> sa = Drive(a, 7300.0);
  const std::vector<double> sb = Drive(b, 7300.0);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i], sb[i]) << "step " << i;
  }
}

TEST(CapacitySearchTest, ConstructorClampsDegenerateOptions) {
  CapacitySearchOptions opt;
  opt.slo_p99_ms = -1.0;
  opt.start_rate_eps = -5.0;
  opt.growth = 0.5;
  opt.max_rate_eps = -100.0;
  opt.resolution = -1.0;
  opt.windows_per_step = 0;
  opt.confirm_violations = 9;
  opt.max_steps = 0;
  CapacitySearch search(opt);
  const CapacitySearchOptions& c = search.options();
  EXPECT_GT(c.slo_p99_ms, 0.0);
  EXPECT_GT(c.start_rate_eps, 0.0);
  EXPECT_GT(c.growth, 1.0);
  EXPECT_GE(c.max_rate_eps, c.start_rate_eps);
  EXPECT_GT(c.resolution, 0.0);
  EXPECT_GE(c.windows_per_step, 1);
  EXPECT_LE(c.confirm_violations, c.windows_per_step);
  EXPECT_GE(c.max_steps, 1);
}

// ---------------------------------------------------------------------------
// CapacityProbe: windowed deltas over the cumulative telemetry hub.
// ---------------------------------------------------------------------------

TEST(CapacityProbeTest, WindowDeltaIsolatesWindowRecords) {
  RunTelemetryOptions topt;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  VirtualClock clock;

  // Pre-window noise the delta must exclude.
  for (int i = 0; i < 10; ++i) {
    hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(1));
  }
  hub.AddDelivered(0, 10);

  CapacityProbe probe(&hub, CapacityProbe::Signal::kDeliver, &clock);
  probe.BeginWindow();
  for (int i = 0; i < 5; ++i) {
    hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(10));
  }
  hub.AddDelivered(0, 500);
  clock.Advance(Duration::FromSeconds(1.0));
  const CapacityWindow w = probe.EndWindow();

  EXPECT_EQ(w.samples, 5u);
  // Log-bucketed histogram: quantiles land on bucket upper bounds.
  EXPECT_NEAR(w.p99_ms, 10.0, 2.0);
  EXPECT_NEAR(w.achieved_rate_eps, 500.0, 1e-6);

  // EndWindow re-baselined: an idle follow-up window carries no signal.
  clock.Advance(Duration::FromSeconds(1.0));
  const CapacityWindow idle = probe.EndWindow();
  EXPECT_EQ(idle.samples, 0u);
  EXPECT_DOUBLE_EQ(idle.achieved_rate_eps, 0.0);
}

TEST(CapacityProbeTest, AutoSignalPrefersMarkersWhenMatched) {
  RunTelemetryOptions topt;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  VirtualClock clock;

  CapacityProbe probe(&hub, CapacityProbe::Signal::kAuto, &clock);
  probe.BeginWindow();
  const Timestamp t0 = Timestamp::FromMillis(1000);
  hub.markers().MarkerSent("m1", t0);
  hub.markers().MarkerObserved("m1", t0 + Duration::FromMillis(50));
  hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(1));
  clock.Advance(Duration::FromSeconds(1.0));
  const CapacityWindow w = probe.EndWindow();
  ASSERT_GT(w.samples, 0u);
  EXPECT_NEAR(w.p99_ms, 50.0, 8.0);  // marker latency, not the 1 ms span

  // With no marker matched in the window, auto falls back to deliver.
  probe.BeginWindow();
  hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(1));
  clock.Advance(Duration::FromSeconds(1.0));
  const CapacityWindow fallback = probe.EndWindow();
  ASSERT_GT(fallback.samples, 0u);
  EXPECT_LT(fallback.p99_ms, 5.0);
}

// TSan target (the CI race job's -R filter matches "Capacity"): the probe
// thread reads LatencySnapshot / MergedStageHistograms / TotalDelivered
// while lane threads record — exactly the concurrent-snapshot-reader path
// CapacityController runs on its own thread.
TEST(CapacityTsanTest, ConcurrentHubWritersAndProbeReader) {
  RunTelemetryOptions topt;
  topt.shards = 2;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  MonotonicClock clock;

  constexpr int kEventsPerLane = 4000;
  std::vector<std::thread> lanes;
  for (size_t shard = 0; shard < 2; ++shard) {
    lanes.emplace_back([&hub, shard] {
      for (int i = 0; i < kEventsPerLane; ++i) {
        hub.RecordStage(shard, ReplayStage::kDeliver,
                        Duration::FromMicros(10 + i % 90));
        hub.AddDelivered(shard, 1);
        if (i % 100 == 0) {
          std::string label("m");
          label.append(std::to_string(shard)).append("-").append(
              std::to_string(i));
          const Timestamp t = Timestamp::FromMillis(i);
          hub.markers().MarkerSent(label, t);
          hub.markers().MarkerObserved(label, t + Duration::FromMillis(2));
        }
      }
    });
  }

  CapacitySearchOptions sopt;
  sopt.windows_per_step = 1;
  sopt.confirm_violations = 1;
  sopt.max_steps = 64;
  CapacitySearch search(sopt);
  CapacityProbe probe(&hub, CapacityProbe::Signal::kAuto, &clock);
  for (int i = 0; i < 50 && !search.done(); ++i) {
    probe.BeginWindow();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    search.ReportWindow(probe.EndWindow());
  }

  for (std::thread& t : lanes) t.join();
  EXPECT_EQ(hub.TotalDelivered(), 2u * kEventsPerLane);
  EXPECT_FALSE(search.steps().empty());
}

}  // namespace
}  // namespace graphtides
