#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

namespace graphtides {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ReseedResets) {
  Rng rng(77);
  const uint64_t first = rng.NextU64();
  rng.NextU64();
  rng.Seed(77);
  EXPECT_EQ(rng.NextU64(), first);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BoolRespectsProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BoolEdgeProbabilities) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(23);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, WeightedPicksProportionally) {
  Rng rng(31);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, WeightedAllZeroReturnsSize) {
  Rng rng(37);
  EXPECT_EQ(rng.NextWeighted({0.0, 0.0}), 2u);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(41);
  Rng child = parent.Fork();
  // Child stream differs from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.NextU64() == child.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

class ZipfSamplerTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerTest, PmfSumsToOne) {
  ZipfSampler zipf(100, GetParam());
  double sum = 0.0;
  for (size_t i = 0; i < zipf.n(); ++i) sum += zipf.Pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfSamplerTest, LowerRanksDominateForPositiveExponent) {
  const double s = GetParam();
  ZipfSampler zipf(50, s);
  if (s > 0.0) {
    EXPECT_GT(zipf.Pmf(0), zipf.Pmf(10));
    EXPECT_GT(zipf.Pmf(10), zipf.Pmf(49));
  } else {
    EXPECT_NEAR(zipf.Pmf(0), zipf.Pmf(49), 1e-12);
  }
}

TEST_P(ZipfSamplerTest, EmpiricalMatchesPmf) {
  ZipfSampler zipf(10, GetParam());
  Rng rng(43);
  std::vector<int> counts(10, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Sample(rng)];
  for (size_t rank = 0; rank < 10; ++rank) {
    EXPECT_NEAR(counts[rank] / static_cast<double>(n), zipf.Pmf(rank), 0.01)
        << "rank " << rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSamplerTest,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0));

TEST(ZipfSamplerTest, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.0);
  Rng rng(47);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

}  // namespace
}  // namespace graphtides
