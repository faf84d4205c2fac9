#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace graphtides {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.min(), 0.0);
  EXPECT_EQ(rs.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats rs;
  rs.Add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_EQ(rs.mean(), 5.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.min(), 5.0);
  EXPECT_EQ(rs.max(), 5.0);
  EXPECT_EQ(rs.sum(), 5.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(v);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
}

TEST(RunningStatsTest, MergeMatchesSinglePass) {
  Rng rng(7);
  RunningStats all;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextGaussian() * 3.0 + 1.0;
    all.Add(v);
    (i % 2 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, SingleElement) {
  EXPECT_EQ(Percentile({3.0}, 0.0), 3.0);
  EXPECT_EQ(Percentile({3.0}, 1.0), 3.0);
}

TEST(PercentileTest, InterpolatesLinearly) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0 / 3.0), 20.0);
}

TEST(PercentileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Percentile({40.0, 10.0, 30.0, 20.0}, 0.5), 25.0);
}

TEST(PercentileTest, MedianOddCount) {
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
}

TEST(StudentTTest, LargeDfApproachesNormal) {
  EXPECT_NEAR(StudentTCritical(0.95, 1000000), 1.96, 0.01);
  EXPECT_NEAR(StudentTCritical(0.99, 1000000), 2.576, 0.01);
  EXPECT_NEAR(StudentTCritical(0.90, 1000000), 1.645, 0.01);
}

TEST(StudentTTest, SmallDfKnownValues) {
  EXPECT_NEAR(StudentTCritical(0.95, 1), 12.706, 0.001);
  EXPECT_NEAR(StudentTCritical(0.95, 10), 2.228, 0.001);
  EXPECT_NEAR(StudentTCritical(0.95, 30), 2.042, 0.001);
}

TEST(StudentTTest, InterpolatedDfMonotone) {
  const double t13 = StudentTCritical(0.95, 13);
  EXPECT_LT(t13, StudentTCritical(0.95, 12));
  EXPECT_GT(t13, StudentTCritical(0.95, 15));
}

TEST(ConfidenceIntervalTest, ContainsMean) {
  std::vector<double> samples;
  Rng rng(99);
  for (int i = 0; i < 50; ++i) samples.push_back(10.0 + rng.NextGaussian());
  const ConfidenceInterval ci = MeanConfidenceInterval(samples, 0.95);
  EXPECT_GT(ci.mean, ci.lower);
  EXPECT_LT(ci.mean, ci.upper);
  EXPECT_EQ(ci.n, 50u);
  // With sigma=1 and n=50, the CI half-width is ~0.28.
  EXPECT_NEAR(ci.upper - ci.lower, 2 * 2.01 * 1.0 / std::sqrt(50.0), 0.15);
}

TEST(ConfidenceIntervalTest, EmptyAndSingleton) {
  const ConfidenceInterval empty = MeanConfidenceInterval({}, 0.95);
  EXPECT_EQ(empty.n, 0u);
  const ConfidenceInterval one = MeanConfidenceInterval({4.0}, 0.95);
  EXPECT_EQ(one.mean, 4.0);
  EXPECT_EQ(one.lower, 4.0);
  EXPECT_EQ(one.upper, 4.0);
}

TEST(ConfidenceIntervalTest, DisjointDetection) {
  ConfidenceInterval a;
  a.lower = 0.0;
  a.upper = 1.0;
  ConfidenceInterval b;
  b.lower = 2.0;
  b.upper = 3.0;
  EXPECT_TRUE(a.DisjointFrom(b));
  EXPECT_TRUE(b.DisjointFrom(a));
  b.lower = 0.5;
  EXPECT_FALSE(a.DisjointFrom(b));
}

TEST(ConfidenceIntervalTest, WiderAtHigherLevel) {
  std::vector<double> samples;
  Rng rng(3);
  for (int i = 0; i < 40; ++i) samples.push_back(rng.NextDouble());
  const auto ci95 = MeanConfidenceInterval(samples, 0.95);
  const auto ci99 = MeanConfidenceInterval(samples, 0.99);
  EXPECT_GT(ci99.upper - ci99.lower, ci95.upper - ci95.lower);
}

}  // namespace
}  // namespace graphtides
