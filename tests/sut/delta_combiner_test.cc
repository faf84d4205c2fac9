#include "sut/chronolite/delta_combiner.h"

#include <gtest/gtest.h>

#include <vector>

namespace graphtides {
namespace {

using Entries = std::vector<DeltaCombiner::Entry>;

TEST(DeltaCombinerTest, KeepsFirstInsertionOrder) {
  DeltaCombiner combiner;
  for (VertexId v : {42u, 7u, 1000003u, 0u, 7u, 42u, 99u}) {
    combiner.Add(v, 1.0);
  }
  EXPECT_EQ(combiner.entries(),
            (Entries{{42, 2.0}, {7, 2.0}, {1000003, 1.0}, {0, 1.0},
                     {99, 1.0}}));
}

TEST(DeltaCombinerTest, SumsRepeatedTargetsInArrivalOrder) {
  // (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit; the
  // combiner must produce the left-to-right arrival-order sum.
  DeltaCombiner combiner;
  combiner.Add(5, 0.1);
  combiner.Add(6, -1.0);
  combiner.Add(5, 0.2);
  combiner.Add(5, 0.3);
  ASSERT_EQ(combiner.size(), 2u);
  EXPECT_EQ(combiner.entries()[0].second, (0.1 + 0.2) + 0.3);
  EXPECT_NE(combiner.entries()[0].second, 0.1 + (0.2 + 0.3));
  EXPECT_EQ(combiner.entries()[1].second, -1.0);
}

TEST(DeltaCombinerTest, ClearKeepsCapacityAndForgetsEntries) {
  DeltaCombiner combiner;
  for (VertexId v = 0; v < 100; ++v) combiner.Add(v, 1.0);
  const size_t capacity = combiner.capacity();
  ASSERT_GE(capacity, 200u);
  combiner.Clear();
  EXPECT_TRUE(combiner.empty());
  EXPECT_EQ(combiner.capacity(), capacity);
  // Earlier targets are new again: their sums restart from the new delta.
  combiner.Add(50, 0.5);
  combiner.Add(3, 0.25);
  combiner.Add(50, 0.5);
  EXPECT_EQ(combiner.entries(), (Entries{{50, 1.0}, {3, 0.25}}));
  EXPECT_EQ(combiner.capacity(), capacity);
}

TEST(DeltaCombinerTest, StaysCorrectAcrossGrowthAndManyClears) {
  // Targets share low bits (multiples of 1024) to force probe chains, the
  // index doubles several times mid-round, and many Clear() epochs pass.
  DeltaCombiner combiner;
  for (int round = 0; round < 300; ++round) {
    const VertexId n = 1 + static_cast<VertexId>(round * 7 % 900);
    for (VertexId i = 0; i < n; ++i) combiner.Add(i * 1024, 1.0);
    for (VertexId i = n; i-- > 0;) combiner.Add(i * 1024, 2.0);
    ASSERT_EQ(combiner.size(), n) << round;
    for (VertexId i = 0; i < n; ++i) {
      ASSERT_EQ(combiner.entries()[i].first, i * 1024) << round;
      ASSERT_EQ(combiner.entries()[i].second, 3.0) << round;
    }
    EXPECT_LE(2 * combiner.size(), combiner.capacity());
    combiner.Clear();
  }
}

}  // namespace
}  // namespace graphtides
