#include <gtest/gtest.h>

#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "sut/chronolite/experiment.h"
#include "sut/weaverlite/experiment.h"

namespace graphtides {
namespace {

std::vector<Event> Table3Stream(size_t rounds, uint64_t seed) {
  EventMixModelOptions model_options;
  model_options.ba = {500, 20, 5};  // scaled-down Table 3 bootstrap
  EventMixModel model(model_options);
  StreamGeneratorOptions gen_options;
  gen_options.rounds = rounds;
  gen_options.seed = seed;
  auto stream = StreamGenerator(&model, gen_options).Generate();
  EXPECT_TRUE(stream.ok());
  return std::move(stream).value().events;
}

TEST(WeaverExperimentTest, LowRateKeepsPace) {
  WeaverExperimentConfig config;
  config.target_rate_eps = 100.0;
  config.events_per_tx = 1;
  config.max_duration = Duration::FromSeconds(120.0);
  auto result = RunWeaverExperiment(Table3Stream(5000, 1), config);
  ASSERT_TRUE(result.ok());
  // Everything offered is applied (minus nothing: the stream is valid).
  EXPECT_EQ(result->events_applied, result->events_offered);
  // At 100 ev/s the applied rate matches the target.
  const auto& series = result->processed_per_interval;
  ASSERT_GT(series.size(), 10u);
  // Steady-state interval throughput ~100 events/s.
  EXPECT_NEAR(series[5], 100.0, 15.0);
}

TEST(WeaverExperimentTest, HighRateHitsCeiling) {
  WeaverExperimentConfig config;
  config.target_rate_eps = 10000.0;
  config.events_per_tx = 1;
  config.max_duration = Duration::FromSeconds(10.0);
  auto result = RunWeaverExperiment(Table3Stream(60000, 2), config);
  ASSERT_TRUE(result.ok());
  // ~1087 ev/s ceiling regardless of the 10k target.
  EXPECT_LT(result->AppliedRateEps(), 2000.0);
  EXPECT_GT(result->AppliedRateEps(), 700.0);
}

TEST(WeaverExperimentTest, BatchingShiftsCeiling) {
  WeaverExperimentConfig config;
  config.target_rate_eps = 10000.0;
  config.max_duration = Duration::FromSeconds(10.0);
  config.events_per_tx = 1;
  auto single = RunWeaverExperiment(Table3Stream(60000, 3), config);
  config.events_per_tx = 10;
  auto batched = RunWeaverExperiment(Table3Stream(60000, 3), config);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(batched.ok());
  EXPECT_GT(batched->AppliedRateEps(), 4.0 * single->AppliedRateEps());
}

TEST(WeaverExperimentTest, LogContainsExpectedSources) {
  WeaverExperimentConfig config;
  config.target_rate_eps = 500.0;
  config.events_per_tx = 10;
  config.max_duration = Duration::FromSeconds(30.0);
  auto result = RunWeaverExperiment(Table3Stream(5000, 4), config);
  ASSERT_TRUE(result.ok());
  const auto sources = result->log.Sources();
  auto has = [&](const std::string& s) {
    return std::find(sources.begin(), sources.end(), s) != sources.end();
  };
  EXPECT_TRUE(has("client"));
  EXPECT_TRUE(has("weaver-timestamper"));
  EXPECT_TRUE(has("weaver-shard-0"));
  // Marker records from the generator's phase markers.
  EXPECT_FALSE(result->log.Filter("replayer", "marker").empty());
}

TEST(WeaverExperimentTest, RejectsZeroBatch) {
  WeaverExperimentConfig config;
  config.events_per_tx = 0;
  auto result = RunWeaverExperiment({}, config);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

std::vector<Event> SocialStream(size_t rounds, uint64_t seed) {
  SocialNetworkModel model;
  StreamGeneratorOptions gen_options;
  gen_options.rounds = rounds;
  gen_options.seed = seed;
  auto stream = StreamGenerator(&model, gen_options).Generate();
  EXPECT_TRUE(stream.ok());
  return std::move(stream).value().events;
}

TEST(ChronographExperimentTest, SmallRunCompletes) {
  ChronographExperimentConfig config;
  config.base_rate_eps = 2000.0;
  config.max_duration = Duration::FromSeconds(60.0);
  config.track_top_k = 5;
  auto result = RunChronographExperiment(SocialStream(10000, 5), config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->events_ingested, 9000u);
  EXPECT_EQ(result->events_ingested, result->updates_applied);
  EXPECT_EQ(result->tracked_users.size(), 5u);
  EXPECT_FALSE(result->replay_rate.empty());
  EXPECT_EQ(result->worker_ops_rate.size(), config.engine.num_workers);
  EXPECT_FALSE(result->rank_error.empty());
}

TEST(ChronographExperimentTest, WatermarkLatenciesMeasured) {
  ChronographExperimentConfig config;
  config.base_rate_eps = 2000.0;
  config.max_duration = Duration::FromSeconds(60.0);
  std::vector<Event> stream = SocialStream(8000, 11);
  stream = ApplyControlSchedule(std::move(stream),
                                {{2000, Event::Marker("WM_A")},
                                 {6000, Event::Marker("WM_B")}});
  auto result = RunChronographExperiment(stream, config);
  ASSERT_TRUE(result.ok());
  // WM_A, WM_B plus the generator's BOOTSTRAP_DONE / STREAM_END markers.
  ASSERT_GE(result->marker_latency.size(), 2u);
  const MarkerLatencySample* wm_a = nullptr;
  const MarkerLatencySample* wm_b = nullptr;
  for (const MarkerLatencySample& m : result->marker_latency) {
    EXPECT_GT(m.latency.nanos(), 0);
    EXPECT_LT(m.latency.seconds(), 60.0);
    if (m.label == "WM_A") wm_a = &m;
    if (m.label == "WM_B") wm_b = &m;
  }
  ASSERT_NE(wm_a, nullptr);
  ASSERT_NE(wm_b, nullptr);
  EXPECT_LT(wm_a->sent, wm_b->sent);
}

TEST(ChronographExperimentTest, PauseVisibleInReplayRate) {
  ChronographExperimentConfig config;
  config.base_rate_eps = 2000.0;
  config.max_duration = Duration::FromSeconds(60.0);
  // 4000 events at 2000 ev/s = 2 s, then a 5 s pause, then the rest.
  std::vector<Event> stream = SocialStream(8000, 6);
  stream = ApplyControlSchedule(
      std::move(stream), {{4000, Event::Pause(Duration::FromSeconds(5.0))}});
  auto result = RunChronographExperiment(stream, config);
  ASSERT_TRUE(result.ok());
  // Some 1-second sample inside the pause shows (near-)zero replay rate.
  bool saw_pause = false;
  for (size_t i = 1; i + 1 < result->replay_rate.size(); ++i) {
    if (result->replay_rate[i] < 100.0) saw_pause = true;
  }
  EXPECT_TRUE(saw_pause);
}

TEST(ChronographExperimentTest, RankErrorDeclinesAfterDrain) {
  ChronographExperimentConfig config;
  config.base_rate_eps = 5000.0;
  config.max_duration = Duration::FromSeconds(120.0);
  config.error_interval = Duration::FromSeconds(2.0);
  auto result = RunChronographExperiment(SocialStream(15000, 7), config);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rank_error.size(), 2u);
  // The last measurement (after drain) beats the worst mid-stream error.
  double worst = 0.0;
  for (const RankErrorSample& s : result->rank_error) {
    worst = std::max(worst, s.median_relative_error);
  }
  EXPECT_LE(result->rank_error.back().median_relative_error, worst);
  // And the final error is modest once the computation catches up. It does
  // not reach zero: churn (unfollows/departures) leaves unreclaimed
  // propagated mass — the same residual inaccuracy the paper reports for
  // Chronograph's online rank (Fig. 3d shows errors up to 100%).
  EXPECT_LT(result->rank_error.back().median_relative_error, 0.3);
}

TEST(ChronographExperimentTest, NoRankErrorBeforeATrackedUserExists) {
  // The most influential user of the final graph is a hub that joins only
  // after 200 other vertices: at 100 ev/s it exists from t = 2 s. An
  // evaluation point before then has no tracked user to score, and must
  // not be recorded (as a perfect error of 0 or otherwise).
  std::vector<Event> stream;
  for (VertexId v = 1; v <= 200; ++v) stream.push_back(Event::AddVertex(v));
  stream.push_back(Event::AddVertex(1000));
  for (VertexId v = 1; v <= 200; ++v) {
    stream.push_back(Event::AddEdge(v, 1000));
  }
  ChronographExperimentConfig config;
  config.base_rate_eps = 100.0;
  config.error_interval = Duration::FromSeconds(1.0);
  config.track_top_k = 1;
  config.max_duration = Duration::FromSeconds(60.0);
  auto result = RunChronographExperiment(stream, config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tracked_users, std::vector<VertexId>{1000});
  ASSERT_FALSE(result->rank_error.empty());
  for (const RankErrorSample& s : result->rank_error) {
    EXPECT_GE(s.time.seconds(), 2.0) << "error " << s.median_relative_error;
  }
}

TEST(ChronographExperimentTest, QueueBacklogUnderDoubledRate) {
  ChronographExperimentConfig config;
  config.base_rate_eps = 2000.0;
  config.max_duration = Duration::FromSeconds(120.0);
  // Double the rate for the second half.
  std::vector<Event> stream = SocialStream(16000, 8);
  stream = ApplyControlSchedule(std::move(stream),
                                {{8000, Event::SetRate(2.0)}});
  auto result = RunChronographExperiment(stream, config);
  ASSERT_TRUE(result.ok());
  // Peak queue length over the run exceeds the steady-state start.
  double early_max = 0.0;
  double overall_max = 0.0;
  for (const auto& series : result->worker_queue_length) {
    for (size_t i = 0; i < series.size(); ++i) {
      if (i < 3) early_max = std::max(early_max, series[i]);
      overall_max = std::max(overall_max, series[i]);
    }
  }
  EXPECT_GT(overall_max, early_max);
}

}  // namespace
}  // namespace graphtides
