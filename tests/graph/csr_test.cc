#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/random.h"

namespace graphtides {
namespace {

Graph Chain(size_t n) {
  Graph g;
  for (VertexId v = 0; v < n; ++v) EXPECT_TRUE(g.AddVertex(v * 10).ok());
  for (VertexId v = 0; v + 1 < n; ++v) {
    EXPECT_TRUE(g.AddEdge(v * 10, (v + 1) * 10).ok());
  }
  return g;
}

TEST(CsrGraphTest, EmptyGraph) {
  const CsrGraph csr = CsrGraph::FromGraph(Graph());
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrGraphTest, DenseIndicesSortedByVertexId) {
  Graph g;
  for (VertexId v : {30, 10, 20}) ASSERT_TRUE(g.AddVertex(v).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  ASSERT_EQ(csr.num_vertices(), 3u);
  EXPECT_EQ(csr.IdOf(0), 10u);
  EXPECT_EQ(csr.IdOf(1), 20u);
  EXPECT_EQ(csr.IdOf(2), 30u);
  CsrGraph::Index idx = 99;
  ASSERT_TRUE(csr.IndexOf(20, &idx));
  EXPECT_EQ(idx, 1u);
  EXPECT_FALSE(csr.IndexOf(40, &idx));
}

TEST(CsrGraphTest, ChainAdjacency) {
  const CsrGraph csr = CsrGraph::FromGraph(Chain(5));
  ASSERT_EQ(csr.num_vertices(), 5u);
  EXPECT_EQ(csr.num_edges(), 4u);
  for (CsrGraph::Index v = 0; v < 4; ++v) {
    const auto out = csr.OutNeighbors(v);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], v + 1);
  }
  EXPECT_TRUE(csr.OutNeighbors(4).empty());
  EXPECT_TRUE(csr.InNeighbors(0).empty());
  const auto in = csr.InNeighbors(3);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], 2u);
}

TEST(CsrGraphTest, DegreesMatchGraph) {
  Rng rng(5);
  Graph g;
  const size_t n = 50;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 300; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  for (CsrGraph::Index v = 0; v < n; ++v) {
    EXPECT_EQ(csr.OutDegree(v), g.OutDegree(csr.IdOf(v)).value());
    EXPECT_EQ(csr.InDegree(v), g.InDegree(csr.IdOf(v)).value());
  }
}

TEST(CsrGraphTest, NeighborListsSorted) {
  Rng rng(11);
  Graph g;
  const size_t n = 30;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 200; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  for (CsrGraph::Index v = 0; v < n; ++v) {
    const auto out = csr.OutNeighbors(v);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    const auto in = csr.InNeighbors(v);
    EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
  }
}

TEST(CsrGraphTest, EveryEdgeAppearsInBothDirections) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  const CsrGraph csr = CsrGraph::FromGraph(g);
  size_t out_total = 0;
  size_t in_total = 0;
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    out_total += csr.OutDegree(v);
    in_total += csr.InDegree(v);
  }
  EXPECT_EQ(out_total, 3u);
  EXPECT_EQ(in_total, 3u);
  // Check the dual representation pointwise.
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    for (CsrGraph::Index w : csr.OutNeighbors(v)) {
      const auto in = csr.InNeighbors(w);
      EXPECT_TRUE(std::find(in.begin(), in.end(), v) != in.end());
    }
  }
}

TEST(CsrGraphTest, SnapshotUnaffectedByLaterMutation) {
  Graph g = Chain(3);
  const CsrGraph csr = CsrGraph::FromGraph(g);
  ASSERT_TRUE(g.RemoveVertex(10).ok());
  EXPECT_EQ(csr.num_vertices(), 3u);
  EXPECT_EQ(csr.num_edges(), 2u);
}

void ExpectSameCsr(const CsrGraph& got, const CsrGraph& want) {
  ASSERT_EQ(got.ids(), want.ids());
  ASSERT_EQ(got.out_offsets(), want.out_offsets());
  ASSERT_EQ(got.in_offsets(), want.in_offsets());
  for (CsrGraph::Index v = 0; v < want.num_vertices(); ++v) {
    const auto go = got.OutNeighbors(v), wo = want.OutNeighbors(v);
    const auto gi = got.InNeighbors(v), wi = want.InNeighbors(v);
    EXPECT_TRUE(std::equal(go.begin(), go.end(), wo.begin(), wo.end()))
        << "out-neighbors of " << want.IdOf(v);
    EXPECT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()))
        << "in-neighbors of " << want.IdOf(v);
  }
}

TEST(CsrGraphTest, ChurnedGraphMatchesFreshGraph) {
  // Ids are multiples of 3 from 3 on, so IndexOf can be asked about ids
  // below, between and above the stored ones.
  auto id = [](size_t i) { return static_cast<VertexId>(3 * (i + 1)); };
  const size_t n = 80;
  const VertexId hub = id(0);
  Graph g;
  std::set<VertexId> vertices;
  std::set<std::pair<VertexId, VertexId>> edges;
  auto add_vertex = [&](VertexId v) {
    ASSERT_TRUE(g.AddVertex(v).ok());
    vertices.insert(v);
  };
  auto add_edge = [&](VertexId a, VertexId b) {
    ASSERT_TRUE(g.AddEdge(a, b).ok());
    edges.emplace(a, b);
  };
  auto remove_edge = [&](VertexId a, VertexId b) {
    ASSERT_TRUE(g.RemoveEdge(a, b).ok());
    edges.erase({a, b});
  };
  auto remove_vertex = [&](VertexId v) {
    ASSERT_TRUE(g.RemoveVertex(v).ok());
    vertices.erase(v);
    std::erase_if(edges, [v](const auto& e) {
      return e.first == v || e.second == v;
    });
  };

  for (size_t i = 0; i < n; ++i) add_vertex(id(i));
  // The hub's lists outgrow kAdjIndexThreshold in both directions ...
  for (size_t i = 1; i < n; ++i) {
    add_edge(hub, id(i));
    add_edge(id(i), hub);
  }
  // ... then shrink back below it, by edge removals and by removing
  // neighbors (cascades through the indexed lists).
  for (size_t i = 1; i < n; ++i) {
    if (i % 4 == 0) {
      remove_vertex(id(i));
    } else if (i % 4 != 1) {
      remove_edge(hub, id(i));
      remove_edge(id(i), hub);
    }
  }
  ASSERT_LT(g.OutDegree(hub).value(), kAdjIndexThreshold);
  ASSERT_LT(g.InDegree(hub).value(), kAdjIndexThreshold);
  // Random edge churn among the live vertices, then re-add removed ids
  // (reusing their slots) plus a few new ones above the old range.
  Rng rng(23);
  for (int step = 0; step < 2000; ++step) {
    const VertexId a = id(rng.NextBounded(n));
    const VertexId b = id(rng.NextBounded(n));
    if (a == b || !vertices.contains(a) || !vertices.contains(b)) continue;
    if (edges.contains({a, b})) {
      remove_edge(a, b);
    } else {
      add_edge(a, b);
    }
  }
  remove_vertex(id(7));
  for (size_t i = 4; i < n; i += 8) add_vertex(id(i));
  for (size_t i = n; i < n + 5; ++i) add_vertex(id(i));
  for (size_t i = 4; i < n + 5; i += 8) {
    add_edge(hub, id(i));
    add_edge(id(i + 1 < n + 5 ? i + 1 : 1), id(i));
  }
  ASSERT_EQ(g.num_vertices(), vertices.size());
  ASSERT_EQ(g.num_edges(), edges.size());

  // A fresh graph with the same final vertex and edge sets, inserted in a
  // different order.
  Graph fresh;
  for (auto it = vertices.rbegin(); it != vertices.rend(); ++it) {
    ASSERT_TRUE(fresh.AddVertex(*it).ok());
  }
  for (const auto& [a, b] : edges) ASSERT_TRUE(fresh.AddEdge(a, b).ok());

  const CsrGraph want = CsrGraph::FromGraph(fresh, 1);
  ASSERT_EQ(want.num_vertices(), vertices.size());
  ASSERT_EQ(want.num_edges(), edges.size());
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const CsrGraph got = CsrGraph::FromGraph(g, threads);
    ExpectSameCsr(got, want);
    CsrGraph::Index idx = 0;
    for (CsrGraph::Index v = 0; v < got.num_vertices(); ++v) {
      ASSERT_TRUE(got.IndexOf(got.IdOf(v), &idx));
      EXPECT_EQ(idx, v);
    }
    EXPECT_FALSE(got.IndexOf(0, &idx));             // below
    EXPECT_FALSE(got.IndexOf(id(0) + 1, &idx));     // between
    EXPECT_FALSE(got.IndexOf(id(7), &idx));         // a removed id
    EXPECT_FALSE(got.IndexOf(id(n + 5), &idx));     // above
    EXPECT_FALSE(got.IndexOf(~VertexId{0}, &idx));  // far above
  }
}

}  // namespace
}  // namespace graphtides
