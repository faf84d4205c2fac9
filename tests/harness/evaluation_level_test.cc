#include "harness/evaluation_level.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

class FakeSut : public SutMetricsSource {
 public:
  std::vector<std::pair<std::string, double>> CollectMetrics() const override {
    return {{"throughput", 123.0}, {"load", 0.5}};
  }
};

TEST(EvaluationLevelTest, LevelOrdering) {
  EXPECT_LT(static_cast<int>(EvaluationLevel::kLevel0),
            static_cast<int>(EvaluationLevel::kLevel1));
  EXPECT_LT(static_cast<int>(EvaluationLevel::kLevel1),
            static_cast<int>(EvaluationLevel::kLevel2));
}

TEST(SutMetricsSourceTest, PolymorphicCollection) {
  FakeSut sut;
  const SutMetricsSource* source = &sut;
  const auto metrics = source->CollectMetrics();
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].first, "throughput");
  EXPECT_DOUBLE_EQ(metrics[0].second, 123.0);
}

TEST(InstrumentationHooksTest, FireReachesAttachedProbes) {
  InstrumentationHooks hooks;
  std::vector<double> seen;
  hooks.Attach("queue", [&](double v) { seen.push_back(v); });
  hooks.Fire("queue", 1.0);
  hooks.Fire("queue", 2.0);
  hooks.Fire("other", 99.0);  // no probe
  EXPECT_EQ(seen, (std::vector<double>{1.0, 2.0}));
}

TEST(InstrumentationHooksTest, MultipleProbesSamePoint) {
  InstrumentationHooks hooks;
  int a = 0;
  int b = 0;
  hooks.Attach("p", [&](double) { ++a; });
  hooks.Attach("p", [&](double) { ++b; });
  hooks.Fire("p", 0.0);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(InstrumentationHooksTest, FireWithoutProbesIsSafe) {
  InstrumentationHooks hooks;
  hooks.Fire("anything", 1.0);  // must not crash
}

}  // namespace
}  // namespace graphtides
