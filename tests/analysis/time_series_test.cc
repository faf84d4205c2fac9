#include "analysis/time_series.h"

#include <gtest/gtest.h>

#include <cmath>

namespace graphtides {
namespace {

TEST(TimeSeriesTest, EmptySeries) {
  TimeSeries series("x");
  EXPECT_TRUE(series.empty());
  EXPECT_EQ(series.name(), "x");
}

TEST(TimeSeriesTest, UnorderedSamplesSorted) {
  TimeSeries series;
  series.Add(Timestamp::FromMillis(30), 3.0);
  series.Add(Timestamp::FromMillis(10), 1.0);
  series.Add(Timestamp::FromMillis(20), 2.0);
  const auto& points = series.points();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].value, 1.0);
  EXPECT_DOUBLE_EQ(points[1].value, 2.0);
  EXPECT_DOUBLE_EQ(points[2].value, 3.0);
  EXPECT_EQ(series.start().millis(), 10);
  EXPECT_EQ(series.end().millis(), 30);
}

TEST(TimeSeriesTest, ResampleMeanAveragesBins) {
  TimeSeries series;
  // Two samples in bin 0, one in bin 1, none in bin 2.
  series.Add(Timestamp::FromMillis(100), 10.0);
  series.Add(Timestamp::FromMillis(900), 20.0);
  series.Add(Timestamp::FromMillis(1500), 5.0);
  const auto bins =
      series.ResampleMean(Timestamp(), Timestamp::FromSeconds(3.0),
                          Duration::FromSeconds(1.0), -1.0);
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_DOUBLE_EQ(bins[0], 15.0);
  EXPECT_DOUBLE_EQ(bins[1], 5.0);
  EXPECT_DOUBLE_EQ(bins[2], -1.0);  // fill
}

TEST(TimeSeriesTest, ResampleExcludesOutOfRange) {
  TimeSeries series;
  series.Add(Timestamp::FromMillis(-500), 100.0);
  series.Add(Timestamp::FromMillis(500), 1.0);
  series.Add(Timestamp::FromMillis(5000), 100.0);
  const auto bins = series.ResampleMean(
      Timestamp(), Timestamp::FromSeconds(1.0), Duration::FromSeconds(1.0));
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_DOUBLE_EQ(bins[0], 1.0);
}

TEST(TimeSeriesTest, ResampleDegenerateRanges) {
  TimeSeries series;
  series.Add(Timestamp::FromMillis(1), 1.0);
  EXPECT_TRUE(series
                  .ResampleMean(Timestamp::FromSeconds(5.0),
                                Timestamp::FromSeconds(1.0),
                                Duration::FromSeconds(1.0))
                  .empty());
  EXPECT_TRUE(series
                  .ResampleMean(Timestamp(), Timestamp::FromSeconds(1.0),
                                Duration::Zero())
                  .empty());
}

TEST(PearsonCorrelationTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, DegenerateInputs) {
  EXPECT_EQ(PearsonCorrelation({}, {}), 0.0);
  EXPECT_EQ(PearsonCorrelation({1.0}, {2.0}), 0.0);
  // Constant series has zero variance.
  EXPECT_EQ(PearsonCorrelation({5, 5, 5}, {1, 2, 3}), 0.0);
}

TEST(PearsonCorrelationTest, UncorrelatedNearZero) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 1000; ++i) {
    a.push_back(std::sin(i * 0.7));
    b.push_back(std::cos(i * 1.3 + 0.5));
  }
  EXPECT_LT(std::abs(PearsonCorrelation(a, b)), 0.1);
}

TEST(CrossCorrelationTest, RecoverssKnownLag) {
  // b is a copy of a delayed by 5 bins.
  std::vector<double> a;
  for (int i = 0; i < 200; ++i) a.push_back(std::sin(i * 0.3));
  std::vector<double> b(a.size(), 0.0);
  for (size_t i = 5; i < b.size(); ++i) b[i] = a[i - 5];
  double correlation = 0.0;
  const int lag = BestCrossCorrelationLag(a, b, 10, &correlation);
  EXPECT_EQ(lag, 5);
  EXPECT_GT(correlation, 0.95);
}

TEST(CrossCorrelationTest, NegativeLagDetected) {
  std::vector<double> a;
  for (int i = 0; i < 200; ++i) a.push_back(std::sin(i * 0.3));
  std::vector<double> b(a.size(), 0.0);
  // b leads a by 3: b[i] = a[i + 3] -> best lag -3.
  for (size_t i = 0; i + 3 < a.size(); ++i) b[i] = a[i + 3];
  double correlation = 0.0;
  const int lag = BestCrossCorrelationLag(a, b, 10, &correlation);
  EXPECT_EQ(lag, -3);
}

TEST(CrossCorrelationTest, AtLagZeroIsPearson) {
  const std::vector<double> a = {1, 3, 2, 5, 4};
  const std::vector<double> b = {2, 6, 4, 10, 8};
  EXPECT_NEAR(CrossCorrelationAtLag(a, b, 0), PearsonCorrelation(a, b),
              1e-12);
}

}  // namespace
}  // namespace graphtides
