#include "generator/topology_index.h"

#include <gtest/gtest.h>

#include <map>

namespace graphtides {
namespace {

TEST(TopologyIndexTest, VertexLifecycle) {
  TopologyIndex topo;
  EXPECT_TRUE(topo.AddVertex(1).ok());
  EXPECT_TRUE(topo.HasVertex(1));
  EXPECT_EQ(topo.num_vertices(), 1u);
  EXPECT_TRUE(topo.AddVertex(1).IsPreconditionFailed());
  EXPECT_TRUE(topo.RemoveVertex(1).ok());
  EXPECT_FALSE(topo.HasVertex(1));
  EXPECT_TRUE(topo.RemoveVertex(1).IsPreconditionFailed());
}

TEST(TopologyIndexTest, EdgeLifecycle) {
  TopologyIndex topo;
  ASSERT_TRUE(topo.AddVertex(1).ok());
  ASSERT_TRUE(topo.AddVertex(2).ok());
  EXPECT_TRUE(topo.AddEdge(1, 1).IsPreconditionFailed());
  EXPECT_TRUE(topo.AddEdge(1, 3).IsPreconditionFailed());
  ASSERT_TRUE(topo.AddEdge(1, 2).ok());
  EXPECT_TRUE(topo.HasEdge(1, 2));
  EXPECT_FALSE(topo.HasEdge(2, 1));
  EXPECT_TRUE(topo.AddEdge(1, 2).IsPreconditionFailed());
  EXPECT_EQ(topo.num_edges(), 1u);
  ASSERT_TRUE(topo.RemoveEdge(1, 2).ok());
  EXPECT_EQ(topo.num_edges(), 0u);
  EXPECT_TRUE(topo.RemoveEdge(1, 2).IsPreconditionFailed());
}

TEST(TopologyIndexTest, RemoveVertexCascades) {
  TopologyIndex topo;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(topo.AddVertex(v).ok());
  ASSERT_TRUE(topo.AddEdge(1, 2).ok());
  ASSERT_TRUE(topo.AddEdge(3, 1).ok());
  ASSERT_TRUE(topo.AddEdge(2, 3).ok());
  ASSERT_TRUE(topo.RemoveVertex(1).ok());
  EXPECT_EQ(topo.num_vertices(), 2u);
  EXPECT_EQ(topo.num_edges(), 1u);
  EXPECT_TRUE(topo.HasEdge(2, 3));
}

TEST(TopologyIndexTest, HighDegreeHubCrossesIndexThreshold) {
  // Push a hub's adjacency well past kAdjIndexThreshold so the indexed
  // (hash-backed) swap-remove path runs, then drain it back through the
  // scan path boundary and cascade-remove the hub itself.
  TopologyIndex topo;
  const VertexId hub = 0;
  ASSERT_TRUE(topo.AddVertex(hub).ok());
  const size_t fan = kAdjIndexThreshold * 3;
  for (VertexId v = 1; v <= fan; ++v) {
    ASSERT_TRUE(topo.AddVertex(v).ok());
    ASSERT_TRUE(topo.AddEdge(hub, v).ok());
    ASSERT_TRUE(topo.AddEdge(v, hub).ok());
  }
  EXPECT_EQ(topo.DegreeOf(hub), 2 * fan);
  EXPECT_EQ(topo.OutDegreeOf(hub), fan);

  // Remove from the middle of the (now indexed) adjacency list.
  for (VertexId v = 2; v <= fan; v += 2) {
    ASSERT_TRUE(topo.RemoveEdge(hub, v).ok());
    ASSERT_TRUE(topo.RemoveEdge(v, hub).ok());
  }
  EXPECT_EQ(topo.DegreeOf(hub), fan);
  for (VertexId v = 1; v <= fan; ++v) {
    EXPECT_EQ(topo.HasEdge(hub, v), v % 2 == 1) << "edge to " << v;
  }

  // Cascade removal of the hub drops every remaining incident edge.
  ASSERT_TRUE(topo.RemoveVertex(hub).ok());
  EXPECT_EQ(topo.num_edges(), 0u);
  EXPECT_EQ(topo.num_vertices(), fan);
  for (VertexId v = 1; v <= fan; ++v) {
    EXPECT_EQ(topo.DegreeOf(v), 0u);
  }
}

TEST(TopologyIndexTest, DegreeTracking) {
  TopologyIndex topo;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(topo.AddVertex(v).ok());
  ASSERT_TRUE(topo.AddEdge(1, 2).ok());
  ASSERT_TRUE(topo.AddEdge(1, 3).ok());
  ASSERT_TRUE(topo.AddEdge(2, 1).ok());
  EXPECT_EQ(topo.DegreeOf(1), 3u);
  EXPECT_EQ(topo.OutDegreeOf(1), 2u);
  EXPECT_EQ(topo.DegreeOf(3), 1u);
  EXPECT_EQ(topo.DegreeOf(99), 0u);
}

TEST(TopologyIndexTest, SamplingFromEmpty) {
  TopologyIndex topo;
  Rng rng(1);
  EXPECT_FALSE(topo.UniformVertex(rng).has_value());
  EXPECT_FALSE(topo.UniformEdge(rng).has_value());
  EXPECT_FALSE(topo.PreferentialVertex(rng).has_value());
  EXPECT_FALSE(topo.DegreeBiasedVertex(rng, 1.0).has_value());
  EXPECT_FALSE(topo.UniformVertexOtherThan(rng, 0).has_value());
}

TEST(TopologyIndexTest, UniformVertexCoversAll) {
  TopologyIndex topo;
  for (VertexId v = 0; v < 10; ++v) ASSERT_TRUE(topo.AddVertex(v).ok());
  Rng rng(3);
  std::map<VertexId, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[*topo.UniformVertex(rng)];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [v, count] : counts) {
    EXPECT_NEAR(count / 10000.0, 0.1, 0.02);
  }
}

TEST(TopologyIndexTest, UniformEdgeOnlyReturnsExistingEdges) {
  TopologyIndex topo;
  for (VertexId v = 0; v < 5; ++v) ASSERT_TRUE(topo.AddVertex(v).ok());
  ASSERT_TRUE(topo.AddEdge(0, 1).ok());
  ASSERT_TRUE(topo.AddEdge(2, 3).ok());
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto e = topo.UniformEdge(rng);
    ASSERT_TRUE(e.has_value());
    EXPECT_TRUE(topo.HasEdge(e->src, e->dst));
  }
}

TEST(TopologyIndexTest, SamplingValidAfterChurn) {
  TopologyIndex topo;
  Rng rng(11);
  for (VertexId v = 0; v < 50; ++v) ASSERT_TRUE(topo.AddVertex(v).ok());
  for (VertexId v = 0; v + 1 < 50; ++v) ASSERT_TRUE(topo.AddEdge(v, v + 1).ok());
  // Remove half the vertices; swap-remove must keep the dense arrays sane.
  for (VertexId v = 0; v < 50; v += 2) ASSERT_TRUE(topo.RemoveVertex(v).ok());
  for (int i = 0; i < 1000; ++i) {
    const auto v = topo.UniformVertex(rng);
    ASSERT_TRUE(v.has_value());
    EXPECT_TRUE(topo.HasVertex(*v));
    EXPECT_EQ(*v % 2, 1u);
    const auto e = topo.UniformEdge(rng);
    if (e.has_value()) {
      EXPECT_TRUE(topo.HasEdge(e->src, e->dst));
    }
  }
}

TEST(TopologyIndexTest, PreferentialVertexFavorsHighDegree) {
  // Star: hub 0 connected to 20 leaves. Preferential sampling picks a
  // uniform edge endpoint, so the hub appears ~50% of the time.
  TopologyIndex topo;
  ASSERT_TRUE(topo.AddVertex(0).ok());
  for (VertexId v = 1; v <= 20; ++v) {
    ASSERT_TRUE(topo.AddVertex(v).ok());
    ASSERT_TRUE(topo.AddEdge(0, v).ok());
  }
  Rng rng(13);
  int hub_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (*topo.PreferentialVertex(rng) == 0) ++hub_hits;
  }
  EXPECT_NEAR(hub_hits / static_cast<double>(n), 0.5, 0.02);
}

TEST(TopologyIndexTest, DegreeBiasDirections) {
  // Hub with high degree vs many low-degree leaves.
  TopologyIndex topo;
  ASSERT_TRUE(topo.AddVertex(0).ok());
  for (VertexId v = 1; v <= 30; ++v) {
    ASSERT_TRUE(topo.AddVertex(v).ok());
    ASSERT_TRUE(topo.AddEdge(0, v).ok());
  }
  Rng rng(17);
  const int n = 30000;
  int hub_positive = 0;
  int hub_negative = 0;
  for (int i = 0; i < n; ++i) {
    if (*topo.DegreeBiasedVertex(rng, 2.0) == 0) ++hub_positive;
    if (*topo.DegreeBiasedVertex(rng, -2.0) == 0) ++hub_negative;
  }
  const double uniform_rate = 1.0 / 31.0;
  EXPECT_GT(hub_positive / static_cast<double>(n), 3 * uniform_rate);
  EXPECT_LT(hub_negative / static_cast<double>(n), uniform_rate / 3);
}

TEST(TopologyIndexTest, ZeroBiasIsUniform) {
  TopologyIndex topo;
  ASSERT_TRUE(topo.AddVertex(0).ok());
  for (VertexId v = 1; v <= 9; ++v) {
    ASSERT_TRUE(topo.AddVertex(v).ok());
    ASSERT_TRUE(topo.AddEdge(0, v).ok());
  }
  Rng rng(19);
  int hub_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (*topo.DegreeBiasedVertex(rng, 0.0) == 0) ++hub_hits;
  }
  EXPECT_NEAR(hub_hits / static_cast<double>(n), 0.1, 0.02);
}

TEST(TopologyIndexTest, UniformVertexOtherThanExcludes) {
  TopologyIndex topo;
  ASSERT_TRUE(topo.AddVertex(1).ok());
  ASSERT_TRUE(topo.AddVertex(2).ok());
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(*topo.UniformVertexOtherThan(rng, 1), 2u);
  }
  // Single vertex equal to the excluded one -> nullopt.
  TopologyIndex single;
  ASSERT_TRUE(single.AddVertex(7).ok());
  EXPECT_FALSE(single.UniformVertexOtherThan(rng, 7).has_value());
  EXPECT_EQ(*single.UniformVertexOtherThan(rng, 8), 7u);
}

}  // namespace
}  // namespace graphtides
