#include "algorithms/shortest_paths.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace graphtides {
namespace {

TEST(BellmanFordTest, UnitWeightsMatchHopCount) {
  Graph g;
  for (VertexId v = 0; v < 4; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v + 1 < 4; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const BellmanFordResult r = BellmanFord(csr, 0, UnitWeights());
  for (uint32_t v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(r.distance[v], v);
  EXPECT_FALSE(r.has_negative_cycle);
}

TEST(BellmanFordTest, WeightedShortcut) {
  // 0->1 (1), 1->2 (1), 0->2 (5): shortest 0->2 is 2 via 1.
  Graph g;
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  auto weight = [](CsrGraph::Index s, CsrGraph::Index d) {
    return (s == 0 && d == 2) ? 5.0 : 1.0;
  };
  const BellmanFordResult r = BellmanFord(csr, 0, weight);
  EXPECT_DOUBLE_EQ(r.distance[2], 2.0);
  EXPECT_EQ(r.predecessor[2], 1u);
  EXPECT_EQ(r.predecessor[1], 0u);
}

TEST(BellmanFordTest, UnreachableIsInfinite) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(0).ok());
  ASSERT_TRUE(g.AddVertex(1).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const BellmanFordResult r = BellmanFord(csr, 0, UnitWeights());
  EXPECT_EQ(r.distance[1], kInfiniteDistance);
  EXPECT_EQ(r.predecessor[1], BellmanFordResult::kNoPredecessor);
}

TEST(BellmanFordTest, NegativeEdgeOk) {
  Graph g;
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  auto weight = [](CsrGraph::Index s, CsrGraph::Index) {
    return s == 1 ? -2.0 : 3.0;
  };
  const BellmanFordResult r = BellmanFord(csr, 0, weight);
  EXPECT_DOUBLE_EQ(r.distance[2], 1.0);
  EXPECT_FALSE(r.has_negative_cycle);
}

TEST(BellmanFordTest, DetectsNegativeCycle) {
  Graph g;
  for (VertexId v = 0; v < 2; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  auto weight = [](CsrGraph::Index, CsrGraph::Index) { return -1.0; };
  const BellmanFordResult r = BellmanFord(csr, 0, weight);
  EXPECT_TRUE(r.has_negative_cycle);
}

TEST(BellmanFordTest, UnreachableNegativeCycleIgnored) {
  // Negative cycle in a component unreachable from the source.
  Graph g;
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  auto weight = [](CsrGraph::Index, CsrGraph::Index) { return -1.0; };
  const BellmanFordResult r = BellmanFord(csr, 0, weight);
  EXPECT_FALSE(r.has_negative_cycle);
}

TEST(BellmanFordTest, SingleVertexGraph) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(0).ok());
  const BellmanFordResult r =
      BellmanFord(CsrGraph::FromGraph(g), 0, UnitWeights());
  EXPECT_DOUBLE_EQ(r.distance[0], 0.0);
}

TEST(FloydWarshallTest, MatchesBellmanFordOnRandomGraphs) {
  Rng rng(23);
  Graph g;
  const size_t n = 20;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 80; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  // Deterministic positive weights from indices.
  auto weight = [](CsrGraph::Index s, CsrGraph::Index d) {
    return 1.0 + ((s * 7 + d * 13) % 5);
  };
  auto fw = FloydWarshall(csr, weight);
  ASSERT_TRUE(fw.ok());
  for (CsrGraph::Index src = 0; src < n; ++src) {
    const BellmanFordResult bf = BellmanFord(csr, src, weight);
    for (size_t dst = 0; dst < n; ++dst) {
      const double fw_dist = (*fw)[src * n + dst];
      if (bf.distance[dst] == kInfiniteDistance) {
        EXPECT_EQ(fw_dist, kInfiniteDistance);
      } else {
        EXPECT_NEAR(fw_dist, bf.distance[dst], 1e-9)
            << src << "->" << dst;
      }
    }
  }
}

TEST(FloydWarshallTest, RejectsHugeGraphs) {
  Graph g;
  for (VertexId v = 0; v < 4097; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  auto fw = FloydWarshall(CsrGraph::FromGraph(g), UnitWeights());
  ASSERT_FALSE(fw.ok());
  EXPECT_TRUE(fw.status().IsCapacityExceeded());
}

}  // namespace
}  // namespace graphtides
