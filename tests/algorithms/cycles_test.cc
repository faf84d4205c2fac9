#include "algorithms/cycles.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace graphtides {
namespace {

TEST(CyclesTest, EmptyGraphIsAcyclic) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph());
  EXPECT_FALSE(HasCycle(csr));
  EXPECT_FALSE(FindCycle(csr).has_value());
  EXPECT_TRUE(TopologicalSort(csr).has_value());
}

TEST(CyclesTest, ChainIsAcyclic) {
  Graph g;
  for (VertexId v = 0; v < 5; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v + 1 < 5; ++v) ASSERT_TRUE(g.AddEdge(v, v + 1).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_FALSE(HasCycle(csr));
  const auto order = TopologicalSort(csr);
  ASSERT_TRUE(order.has_value());
  for (size_t i = 0; i < order->size(); ++i) {
    EXPECT_EQ((*order)[i], i);
  }
}

TEST(CyclesTest, SimpleCycleDetected) {
  Graph g;
  for (VertexId v = 0; v < 3; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_TRUE(HasCycle(csr));
  EXPECT_FALSE(TopologicalSort(csr).has_value());
}

TEST(CyclesTest, ReciprocalEdgesAreACycle) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  EXPECT_TRUE(HasCycle(CsrGraph::FromGraph(g)));
}

TEST(CyclesTest, UndirectedStyleTreeIsAcyclicDirected) {
  // Directed edges all away from the root: no directed cycle.
  Graph g;
  for (VertexId v = 0; v < 7; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 1; v < 7; ++v) {
    ASSERT_TRUE(g.AddEdge((v - 1) / 2, v).ok());
  }
  EXPECT_FALSE(HasCycle(CsrGraph::FromGraph(g)));
}

TEST(FindCycleTest, ReturnedCycleIsValid) {
  Graph g;
  for (VertexId v = 0; v < 6; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(3, 1).ok());  // cycle 1-2-3-1
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const auto cycle = FindCycle(csr);
  ASSERT_TRUE(cycle.has_value());
  ASSERT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  // Every consecutive pair must be a real edge.
  for (size_t i = 0; i + 1 < cycle->size(); ++i) {
    const auto out = csr.OutNeighbors((*cycle)[i]);
    EXPECT_TRUE(std::find(out.begin(), out.end(), (*cycle)[i + 1]) !=
                out.end())
        << "missing edge " << (*cycle)[i] << "->" << (*cycle)[i + 1];
  }
}

TEST(TopologicalSortTest, RespectsAllEdges) {
  Rng rng(41);
  // Random DAG: edges only from lower to higher id.
  Graph g;
  const size_t n = 40;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 150; ++i) {
    VertexId a = rng.NextBounded(n);
    VertexId b = rng.NextBounded(n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const auto order = TopologicalSort(csr);
  ASSERT_TRUE(order.has_value());
  std::vector<size_t> position(n);
  for (size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  for (CsrGraph::Index v = 0; v < n; ++v) {
    for (CsrGraph::Index w : csr.OutNeighbors(v)) {
      EXPECT_LT(position[v], position[w]);
    }
  }
}

TEST(FindCycleTest, AgreesWithHasCycleOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Graph g;
    const size_t n = 25;
    for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
    const int edges = static_cast<int>(rng.NextBounded(60));
    for (int i = 0; i < edges; ++i) {
      const VertexId a = rng.NextBounded(n);
      const VertexId b = rng.NextBounded(n);
      if (a != b && !g.HasEdge(a, b)) {
        ASSERT_TRUE(g.AddEdge(a, b).ok());
      }
    }
    const CsrGraph csr = CsrGraph::FromGraph(g);
    EXPECT_EQ(HasCycle(csr), FindCycle(csr).has_value()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace graphtides
