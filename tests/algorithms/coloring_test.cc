#include "algorithms/coloring.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace graphtides {
namespace {

TEST(ColoringTest, EmptyGraph) {
  const ColoringResult r = GreedyColoring(CsrGraph::FromGraph(Graph()));
  EXPECT_EQ(r.num_colors, 0u);
  EXPECT_TRUE(r.color.empty());
}

TEST(ColoringTest, IsolatedVerticesOneColor) {
  Graph g;
  for (VertexId v = 0; v < 5; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  const ColoringResult r = GreedyColoring(CsrGraph::FromGraph(g));
  EXPECT_EQ(r.num_colors, 1u);
  for (uint32_t c : r.color) EXPECT_EQ(c, 0u);
}

TEST(ColoringTest, BipartiteEvenCycleTwoColors) {
  Graph g;
  const size_t n = 8;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 1) % n).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const ColoringResult r = GreedyColoring(csr);
  EXPECT_TRUE(IsProperColoring(csr, r.color));
  EXPECT_LE(r.num_colors, 3u);  // greedy may use 3 on cycles, never more
}

TEST(ColoringTest, CompleteGraphNeedsNColors) {
  Graph g;
  const size_t n = 6;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) ASSERT_TRUE(g.AddEdge(i, j).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const ColoringResult r = GreedyColoring(csr);
  EXPECT_EQ(r.num_colors, n);
  EXPECT_TRUE(IsProperColoring(csr, r.color));
}

TEST(ColoringTest, StarNeedsTwoColors) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(0).ok());
  for (VertexId v = 1; v <= 10; ++v) {
    ASSERT_TRUE(g.AddVertex(v).ok());
    ASSERT_TRUE(g.AddEdge(0, v).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const ColoringResult r = GreedyColoring(csr);
  EXPECT_EQ(r.num_colors, 2u);
  EXPECT_TRUE(IsProperColoring(csr, r.color));
}

TEST(IsProperColoringTest, DetectsViolation) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_FALSE(IsProperColoring(csr, {0, 0}));
  EXPECT_TRUE(IsProperColoring(csr, {0, 1}));
  EXPECT_FALSE(IsProperColoring(csr, {0}));  // wrong size
}

class RandomColoringTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomColoringTest, ProperAndBoundedByMaxDegreePlusOne) {
  Rng rng(GetParam());
  Graph g;
  const size_t n = 60;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 250; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const ColoringResult r = GreedyColoring(csr);
  EXPECT_TRUE(IsProperColoring(csr, r.color));
  size_t max_degree = 0;
  for (CsrGraph::Index v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, csr.OutDegree(v) + csr.InDegree(v));
  }
  EXPECT_LE(r.num_colors, max_degree + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomColoringTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace graphtides
