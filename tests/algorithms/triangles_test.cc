#include "algorithms/triangles.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <utility>

namespace graphtides {
namespace {

Graph CompleteDirected(size_t n) {
  // One direction per pair (i < j), which is a complete undirected graph.
  Graph g;
  for (VertexId v = 0; v < n; ++v) EXPECT_TRUE(g.AddVertex(v).ok());
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      EXPECT_TRUE(g.AddEdge(i, j).ok());
    }
  }
  return g;
}

TEST(TrianglesTest, EmptyAndTiny) {
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(Graph())), 0u);
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(CompleteDirected(2))), 0u);
}

TEST(TrianglesTest, SingleTriangle) {
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(CompleteDirected(3))), 1u);
}

class CompleteGraphTrianglesTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompleteGraphTrianglesTest, BinomialCount) {
  const size_t n = GetParam();
  const uint64_t expected = n * (n - 1) * (n - 2) / 6;
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(CompleteDirected(n))),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompleteGraphTrianglesTest,
                         ::testing::Values(3, 4, 5, 6, 8, 12));

TEST(TrianglesTest, DirectionDoesNotMatter) {
  // Triangle with mixed directions.
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(g)), 1u);
}

TEST(TrianglesTest, ReciprocalEdgesNotDoubleCounted) {
  // Both directions of every pair: still one triangle.
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId a : {1, 2, 3}) {
    for (VertexId b : {1, 2, 3}) {
      if (a != b) {
        ASSERT_TRUE(g.AddEdge(a, b).ok());
      }
    }
  }
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(g)), 1u);
}

TEST(TrianglesTest, SquareHasNoTriangles) {
  Graph g;
  for (VertexId v = 0; v < 4; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v < 4; ++v) {
    ASSERT_TRUE(g.AddEdge(v, (v + 1) % 4).ok());
  }
  EXPECT_EQ(CountTriangles(CsrGraph::FromGraph(g)), 0u);
}

TEST(ClusteringTest, CompleteGraphIsOne) {
  EXPECT_NEAR(
      GlobalClusteringCoefficient(CsrGraph::FromGraph(CompleteDirected(5))),
      1.0, 1e-12);
}

TEST(ClusteringTest, TreeIsZero) {
  Graph g;
  for (VertexId v = 0; v < 7; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 1; v < 7; ++v) {
    ASSERT_TRUE(g.AddEdge((v - 1) / 2, v).ok());
  }
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(CsrGraph::FromGraph(g)), 0.0);
}

TEST(ClusteringTest, KnownSmallGraph) {
  // Triangle {0,1,2} plus pendant 3 attached to 0.
  // Triangles = 1; wedges: deg(0)=3 -> 3, deg(1)=2 -> 1, deg(2)=2 -> 1,
  // deg(3)=1 -> 0; total 5. C = 3*1/5.
  Graph g;
  for (VertexId v = 0; v < 4; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  EXPECT_NEAR(GlobalClusteringCoefficient(CsrGraph::FromGraph(g)), 0.6,
              1e-12);
}

TEST(ClusteringTest, EmptyGraphIsZero) {
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(CsrGraph::FromGraph(Graph())),
                   0.0);
}

/// Graph on ids [0, n) with one edge a -> b per pair; `both_directions`
/// adds b -> a too.
Graph FromPairs(size_t n, std::initializer_list<std::pair<VertexId, VertexId>>
                              pairs,
                bool both_directions = false) {
  Graph g;
  for (VertexId v = 0; v < n; ++v) EXPECT_TRUE(g.AddVertex(v).ok());
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(g.AddEdge(a, b).ok());
    if (both_directions) {
      EXPECT_TRUE(g.AddEdge(b, a).ok());
    }
  }
  return g;
}

/// Wheel: hub 0 joined to a rim cycle 1..rim. It has exactly `rim`
/// triangles for rim >= 4; the hub outranks every rim vertex, and the rim
/// vertices all tie on degree 3.
Graph Wheel(size_t rim) {
  Graph g;
  for (VertexId v = 0; v <= rim; ++v) EXPECT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 1; v <= rim; ++v) {
    EXPECT_TRUE(g.AddEdge(0, v).ok());
    EXPECT_TRUE(g.AddEdge(v, v % rim + 1).ok());
  }
  return g;
}

/// Every edge case runs sequentially and on the pool.
class TrianglesEdgeCaseTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TrianglesEdgeCaseTest, StarHasWedgesButNoTriangles) {
  const Graph g =
      FromPairs(7, {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}});
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(CountTriangles(csr, GetParam()), 0u);
  // 15 wedges at the hub, none closed.
  EXPECT_EQ(GlobalClusteringCoefficient(csr, GetParam()), 0.0);
}

TEST_P(TrianglesEdgeCaseTest, ReciprocalFourCliqueHasFourTriangles) {
  const Graph g =
      FromPairs(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}},
                /*both_directions=*/true);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.num_edges(), 12u);
  EXPECT_EQ(CountTriangles(csr, GetParam()), 4u);
  EXPECT_EQ(GlobalClusteringCoefficient(csr, GetParam()), 1.0);
}

TEST_P(TrianglesEdgeCaseTest, FourCliqueMinusOneEdgeHasTwoTriangles) {
  // Missing 0-3: vertices 0 and 3 tie at degree 2, 1 and 2 tie at 3.
  const Graph g = FromPairs(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(CountTriangles(csr, GetParam()), 2u);
  // Wedges: 1 + 3 + 3 + 1 = 8; C = 3 * 2 / 8.
  EXPECT_EQ(GlobalClusteringCoefficient(csr, GetParam()), 0.75);
}

TEST_P(TrianglesEdgeCaseTest, IsolatedVerticesMixedIn) {
  // Triangles {1,4,7} and {4,7,9} share edge 4-7; 0, 2, 3, 5, 6, 8, 10
  // and 11 are isolated.
  const Graph g = FromPairs(12, {{1, 4}, {4, 7}, {1, 7}, {7, 9}, {9, 4}});
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(CountTriangles(csr, GetParam()), 2u);
  // Wedges: 1 (v1) + 3 (v4) + 3 (v7) + 1 (v9) = 8.
  EXPECT_EQ(GlobalClusteringCoefficient(csr, GetParam()), 0.75);
}

INSTANTIATE_TEST_SUITE_P(Threads, TrianglesEdgeCaseTest,
                         ::testing::Values(1, 8));

TEST(TrianglesScratchTest, ReusedAcrossShrinkingAndGrowingGraphs) {
  // The per-thread marks outlive each call: they must come back all-zero
  // and grow for a larger graph. Large, then small, then larger again.
  const CsrGraph large = CsrGraph::FromGraph(Wheel(20000));
  const CsrGraph small = CsrGraph::FromGraph(CompleteDirected(6));
  const CsrGraph larger = CsrGraph::FromGraph(Wheel(30000));
  for (const size_t threads : {1, 8}) {
    EXPECT_EQ(CountTriangles(large, threads), 20000u) << threads;
    EXPECT_EQ(CountTriangles(small, threads), 20u) << threads;
    EXPECT_EQ(CountTriangles(larger, threads), 30000u) << threads;
  }
}

}  // namespace
}  // namespace graphtides
