#include "harness/capacity/capacity_controller.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/clock.h"
#include "harness/telemetry/run_telemetry.h"

namespace graphtides {
namespace {

constexpr Duration kTick = Duration::FromMillis(10);

CapacityControllerOptions KneeSearchOptions() {
  CapacityControllerOptions options;
  options.search.slo_p99_ms = 50.0;
  options.search.start_rate_eps = 1000.0;
  options.search.growth = 2.0;
  options.search.max_rate_eps = 1e6;
  options.search.resolution = 0.05;
  options.search.windows_per_step = 2;
  options.search.confirm_violations = 1;
  options.signal = CapacityProbe::Signal::kDeliver;
  options.warmup = Duration::FromMillis(50);
  options.window = Duration::FromMillis(100);
  return options;
}

// A full bracketing + refinement search driven through Poll on a virtual
// clock. The simulated downstream delivers at whatever rate the controller
// publishes and keeps its deliver latency at 2 ms up to 10k ev/s, 80 ms
// above: bracketing doubles from 1k until 16k violates, then bisection
// narrows [8k, 16k] to within 5%.
TEST(CapacityControllerTest, PollDrivesAFullSearchOnAVirtualClock) {
  RunTelemetryOptions topt;
  topt.shards = 1;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  VirtualClock clock;
  CapacityController controller(KneeSearchOptions(), &hub, &clock);
  const std::atomic<double>& target = *controller.rate_target();
  EXPECT_DOUBLE_EQ(target.load(), 1000.0);  // the start rate, before Poll

  const std::vector<double> expected_schedule = {
      1000, 2000, 4000, 8000, 16000, 12000, 10000, 11000, 10500};
  const std::vector<bool> expected_violated = {
      false, false, false, false, true, true, false, true, true};

  std::vector<double> published = {target.load()};
  size_t concluded_steps = 0;
  int ticks = 0;
  for (; ticks < 10000 && !controller.concluded(); ++ticks) {
    const double rate = target.load();
    hub.RecordStage(0, ReplayStage::kDeliver,
                    Duration::FromMillis(rate > 10000.0 ? 80 : 2));
    hub.AddDelivered(0, static_cast<uint64_t>(rate * kTick.seconds()));
    const bool done = controller.Poll(clock.Now());
    EXPECT_EQ(done, controller.concluded());
    const auto& steps = controller.search().steps();
    if (steps.size() != concluded_steps) {
      // The step that just concluded was measured at the rate published
      // for it, and the next step's rate is published in the same Poll.
      ASSERT_EQ(steps.size(), concluded_steps + 1);
      const CapacityStep& step = steps.back();
      ASSERT_LT(step.index, static_cast<int>(expected_schedule.size()));
      EXPECT_DOUBLE_EQ(step.offered_rate_eps, expected_schedule[step.index]);
      EXPECT_EQ(step.violated, expected_violated[step.index])
          << "step " << step.index;
      EXPECT_DOUBLE_EQ(step.offered_rate_eps, rate);
      if (!done) {
        EXPECT_DOUBLE_EQ(target.load(),
                         controller.search().current_rate_eps());
        published.push_back(target.load());
      }
      concluded_steps = steps.size();
    }
    clock.Advance(kTick);
  }

  ASSERT_TRUE(controller.concluded());
  EXPECT_TRUE(controller.Poll(clock.Now()));  // stays concluded
  EXPECT_EQ(controller.search().StepSchedule(), expected_schedule);
  EXPECT_EQ(published, expected_schedule);
  EXPECT_DOUBLE_EQ(controller.search().sustainable_rate_eps(), 10000.0);
  // A sustained step is a 50 ms warmup plus two 100 ms windows (25 ticks),
  // a violated one the warmup plus one window (15 ticks); the loop also
  // counts the tick that concluded the search.
  EXPECT_EQ(ticks, 5 * 25 + 4 * 15 + 1);

  const FrontierArtifact artifact = controller.Artifact("sim", "knee");
  EXPECT_TRUE(artifact.complete);
  EXPECT_EQ(artifact.step_schedule, expected_schedule);
  EXPECT_DOUBLE_EQ(artifact.sustainable_offered_eps, 10000.0);
  EXPECT_NEAR(artifact.sustainable_rate_eps, 10000.0, 1.0);
}

// The warmup after each retarget is never measured: a latency spike that
// ends before the warmup does leaves the step sustained.
TEST(CapacityControllerTest, WarmupSamplesAreNotMeasured) {
  RunTelemetryOptions topt;
  topt.shards = 1;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  VirtualClock clock;
  CapacityControllerOptions options = KneeSearchOptions();
  options.search.max_rate_eps = options.search.start_rate_eps;  // one step
  CapacityController controller(options, &hub, &clock);

  controller.Poll(clock.Now());  // begins the step: warmup until 50 ms
  hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(500));
  clock.Advance(Duration::FromMillis(50));
  controller.Poll(clock.Now());  // opens the first window
  for (int window = 0; window < 2; ++window) {
    hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(1));
    clock.Advance(Duration::FromMillis(100));
    controller.Poll(clock.Now());
  }
  ASSERT_TRUE(controller.concluded());
  ASSERT_EQ(controller.search().steps().size(), 1u);
  EXPECT_FALSE(controller.search().steps()[0].violated);
}

// The thread path (CI's TSan job runs this suite): a concluded search fires
// the replay's cancel token, and Stop joins.
TEST(CapacityControllerTest, ConcludedSearchCancelsTheReplay) {
  RunTelemetryOptions topt;
  topt.shards = 1;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  MonotonicClock clock;
  CapacityControllerOptions options = KneeSearchOptions();
  options.search.max_rate_eps = options.search.start_rate_eps;  // one step
  options.search.windows_per_step = 1;
  options.warmup = Duration::Zero();
  options.window = Duration::FromMillis(1);
  CapacityController controller(options, &hub, &clock);
  CancellationToken cancel;
  controller.Start(&cancel);
  while (!cancel.cancelled()) {
    hub.RecordStage(0, ReplayStage::kDeliver, Duration::FromMillis(1));
    std::this_thread::yield();
  }
  controller.Stop();
  EXPECT_TRUE(controller.concluded());
  EXPECT_EQ(cancel.reason(), "capacity search complete");
  EXPECT_TRUE(controller.Artifact("sim", "w").complete);
}

// A replay that ends first (Stop before the search concludes) leaves the
// run uncancelled and the artifact incomplete.
TEST(CapacityControllerTest, StopBeforeConclusionLeavesTheArtifactIncomplete) {
  RunTelemetryOptions topt;
  topt.shards = 1;
  topt.sample_every = 1;
  RunTelemetry hub(topt);
  MonotonicClock clock;
  CapacityControllerOptions options = KneeSearchOptions();
  options.warmup = Duration::FromSeconds(3600.0);
  CapacityController controller(options, &hub, &clock);
  CancellationToken cancel;
  controller.Start(&cancel);
  controller.Stop();
  EXPECT_FALSE(controller.concluded());
  EXPECT_FALSE(cancel.cancelled());
  const FrontierArtifact artifact = controller.Artifact("sim", "w");
  EXPECT_FALSE(artifact.complete);
  EXPECT_TRUE(artifact.step_schedule.empty());
}

}  // namespace
}  // namespace graphtides
