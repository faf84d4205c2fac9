#include "algorithms/traversal.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

Graph Path(size_t n) {
  Graph g;
  for (VertexId v = 0; v < n; ++v) EXPECT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v + 1 < n; ++v) EXPECT_TRUE(g.AddEdge(v, v + 1).ok());
  return g;
}

TEST(BfsTest, DistancesAlongPath) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(5));
  const auto dist = BfsDistances(csr, 0);
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(BfsTest, DirectionalityMatters) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(5));
  const auto dist = BfsDistances(csr, 4);
  EXPECT_EQ(dist[4], 0u);
  for (uint32_t v = 0; v < 4; ++v) EXPECT_EQ(dist[v], kUnreachable);
}

TEST(BfsTest, UndirectedViewReachesBackwards) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(5));
  const auto dist = BfsDistancesUndirected(csr, 4);
  for (uint32_t v = 0; v < 5; ++v) EXPECT_EQ(dist[v], 4 - v);
}

TEST(BfsTest, DisconnectedComponentsUnreachable) {
  Graph g;
  for (VertexId v : {1, 2, 3, 4}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  CsrGraph::Index start;
  ASSERT_TRUE(csr.IndexOf(1, &start));
  const auto dist = BfsDistances(csr, start);
  CsrGraph::Index other;
  ASSERT_TRUE(csr.IndexOf(3, &other));
  EXPECT_EQ(dist[other], kUnreachable);
}

TEST(BfsTest, InvalidSourceAllUnreachable) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(3));
  const auto dist = BfsDistances(csr, 99);
  for (uint32_t d : dist) EXPECT_EQ(d, kUnreachable);
}

TEST(PathExistsTest, FollowsDirection) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(4));
  EXPECT_TRUE(PathExists(csr, 0, 3));
  EXPECT_FALSE(PathExists(csr, 3, 0));
  EXPECT_TRUE(PathExists(csr, 1, 1));  // trivially reachable
  EXPECT_FALSE(PathExists(csr, 0, 99));
}

TEST(SpanningTreeTest, CoversReachableSet) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(5));
  const SpanningTree tree = BfsSpanningTree(csr, 0);
  EXPECT_EQ(tree.reached, 5u);
  EXPECT_EQ(tree.parent[0], 0u);
  for (uint32_t v = 1; v < 5; ++v) EXPECT_EQ(tree.parent[v], v - 1);
}

TEST(SpanningTreeTest, ParentEdgesExist) {
  Graph g;
  for (VertexId v = 0; v < 6; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const SpanningTree tree = BfsSpanningTree(csr, 0);
  EXPECT_EQ(tree.reached, 5u);  // vertex 5 unreachable
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    if (tree.parent[v] == SpanningTree::kNoParent || tree.parent[v] == v) {
      continue;
    }
    // Parent edge must exist in the graph.
    bool found = false;
    for (CsrGraph::Index w : csr.OutNeighbors(tree.parent[v])) {
      if (w == v) found = true;
    }
    EXPECT_TRUE(found) << "missing edge " << tree.parent[v] << "->" << v;
  }
}

TEST(DiameterTest, PathGraphExact) {
  const CsrGraph csr = CsrGraph::FromGraph(Path(10));
  EXPECT_EQ(ExactDiameter(csr), 9u);
}

TEST(DiameterTest, EstimateMatchesExactOnTrees) {
  // Double sweep is exact on trees.
  Graph g;
  for (VertexId v = 0; v < 15; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 1; v < 15; ++v) {
    ASSERT_TRUE(g.AddEdge((v - 1) / 2, v).ok());  // binary tree
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  Rng rng(7);
  const size_t estimate = EstimateDiameter(csr, 3, rng);
  EXPECT_EQ(estimate, ExactDiameter(csr));
}

TEST(DiameterTest, EstimateNeverExceedsExact) {
  Rng graph_rng(13);
  Graph g;
  const size_t n = 40;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 100; ++i) {
    const VertexId a = graph_rng.NextBounded(n);
    const VertexId b = graph_rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const size_t exact = ExactDiameter(csr);
  Rng rng(17);
  const size_t estimate = EstimateDiameter(csr, 8, rng);
  EXPECT_LE(estimate, exact);
  EXPECT_GE(estimate, exact > 0 ? 1u : 0u);
}

TEST(DiameterTest, TinyGraphs) {
  Rng rng(1);
  EXPECT_EQ(EstimateDiameter(CsrGraph::FromGraph(Graph()), 2, rng), 0u);
  Graph one;
  ASSERT_TRUE(one.AddVertex(1).ok());
  EXPECT_EQ(EstimateDiameter(CsrGraph::FromGraph(one), 2, rng), 0u);
  EXPECT_EQ(ExactDiameter(CsrGraph::FromGraph(one)), 0u);
}

}  // namespace
}  // namespace graphtides
