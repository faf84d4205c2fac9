#include "algorithms/components.h"

#include <gtest/gtest.h>

#include "algorithms/traversal.h"
#include "common/random.h"

namespace graphtides {
namespace {

TEST(WccTest, EmptyGraph) {
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(Graph()));
  EXPECT_EQ(r.num_components, 0u);
  EXPECT_EQ(r.LargestSize(), 0u);
}

TEST(WccTest, IsolatedVerticesAreSingletons) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(g));
  EXPECT_EQ(r.num_components, 3u);
  EXPECT_EQ(r.LargestSize(), 1u);
}

TEST(WccTest, DirectionIgnored) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 2).ok());  // 3 -> 2 still connects weakly
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(g));
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.LargestSize(), 3u);
}

TEST(WccTest, TwoComponents) {
  Graph g;
  for (VertexId v = 0; v < 6; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(g));
  EXPECT_EQ(r.num_components, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(r.LargestSize(), 3u);
  // Labels consistent with membership.
  EXPECT_EQ(r.component[0], r.component[1]);
  EXPECT_EQ(r.component[1], r.component[2]);
  EXPECT_EQ(r.component[3], r.component[4]);
  EXPECT_NE(r.component[0], r.component[3]);
  EXPECT_NE(r.component[0], r.component[5]);
}

TEST(WccTest, SizesSumToVertexCount) {
  Rng rng(31);
  Graph g;
  const size_t n = 60;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 50; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(g));
  size_t total = 0;
  for (size_t s : r.sizes) total += s;
  EXPECT_EQ(total, n);
}

TEST(WccTest, AgreesWithUndirectedBfs) {
  Rng rng(37);
  Graph g;
  const size_t n = 50;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 40; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const ComponentsResult r = WeaklyConnectedComponents(csr);
  // Same component iff mutually reachable in the undirected view.
  for (CsrGraph::Index v = 0; v < n; v += 7) {
    const auto dist = BfsDistancesUndirected(csr, v);
    for (CsrGraph::Index w = 0; w < n; ++w) {
      const bool reachable = dist[w] != kUnreachable;
      EXPECT_EQ(reachable, r.component[v] == r.component[w])
          << v << " vs " << w;
    }
  }
}

TEST(WccTest, LabelsAreDense) {
  Graph g;
  for (VertexId v = 0; v < 10; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  const ComponentsResult r = WeaklyConnectedComponents(CsrGraph::FromGraph(g));
  for (uint32_t label : r.component) {
    EXPECT_LT(label, r.num_components);
  }
}

}  // namespace
}  // namespace graphtides
