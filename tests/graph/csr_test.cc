#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

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

// A Graph together with its vertex and edge sets, kept in step by every
// mutation, so a snapshot can be checked against the sets alone.
struct TrackedGraph {
  Graph graph;
  std::set<VertexId> vertices;
  std::set<std::pair<VertexId, VertexId>> edges;

  void AddVertex(VertexId v) {
    ASSERT_TRUE(graph.AddVertex(v).ok()) << v;
    vertices.insert(v);
  }
  void AddEdge(VertexId a, VertexId b) {
    ASSERT_TRUE(graph.AddEdge(a, b).ok()) << a << "->" << b;
    edges.emplace(a, b);
  }
  void RemoveEdge(VertexId a, VertexId b) {
    ASSERT_TRUE(graph.RemoveEdge(a, b).ok()) << a << "->" << b;
    edges.erase({a, b});
  }
  void RemoveVertex(VertexId v) {
    ASSERT_TRUE(graph.RemoveVertex(v).ok()) << v;
    vertices.erase(v);
    std::erase_if(edges, [v](const auto& e) {
      return e.first == v || e.second == v;
    });
  }
};

TEST(CsrGraphTest, ChurnedGraphMatchesFreshGraph) {
  // Ids are multiples of 3 from 3 on, so IndexOf can be asked about ids
  // below, between and above the stored ones.
  auto id = [](size_t i) { return static_cast<VertexId>(3 * (i + 1)); };
  const size_t n = 80;
  const VertexId hub = id(0);
  TrackedGraph t;
  Graph& g = t.graph;
  const std::set<VertexId>& vertices = t.vertices;
  const std::set<std::pair<VertexId, VertexId>>& edges = t.edges;
  for (size_t i = 0; i < n; ++i) t.AddVertex(id(i));
  // The hub's lists outgrow kAdjIndexThreshold in both directions ...
  for (size_t i = 1; i < n; ++i) {
    t.AddEdge(hub, id(i));
    t.AddEdge(id(i), hub);
  }
  // ... then shrink back below it, by edge removals and by removing
  // neighbors (cascades through the indexed lists).
  for (size_t i = 1; i < n; ++i) {
    if (i % 4 == 0) {
      t.RemoveVertex(id(i));
    } else if (i % 4 != 1) {
      t.RemoveEdge(hub, id(i));
      t.RemoveEdge(id(i), hub);
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
      t.RemoveEdge(a, b);
    } else {
      t.AddEdge(a, b);
    }
  }
  t.RemoveVertex(id(7));
  for (size_t i = 4; i < n; i += 8) t.AddVertex(id(i));
  for (size_t i = n; i < n + 5; ++i) t.AddVertex(id(i));
  for (size_t i = 4; i < n + 5; i += 8) {
    t.AddEdge(hub, id(i));
    t.AddEdge(id(i + 1 < n + 5 ? i + 1 : 1), id(i));
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

// The CSR of a vertex set and an edge set, derived without CsrGraph: dense
// indices are ranks in the ordered id set, and each list is read off an
// ordered set of (src, dst) or (dst, src) pairs.
struct OracleCsr {
  std::vector<VertexId> ids;
  std::vector<size_t> out_offsets{0};
  std::vector<CsrGraph::Index> out_targets;
  std::vector<size_t> in_offsets{0};
  std::vector<CsrGraph::Index> in_targets;
};

OracleCsr SortedEdgeSetOracle(const TrackedGraph& t) {
  OracleCsr oracle;
  oracle.ids.assign(t.vertices.begin(), t.vertices.end());
  std::map<VertexId, CsrGraph::Index> rank;
  for (const VertexId v : oracle.ids) {
    rank.emplace(v, static_cast<CsrGraph::Index>(rank.size()));
  }
  std::set<std::pair<VertexId, VertexId>> reversed;
  for (const auto& [a, b] : t.edges) reversed.emplace(b, a);
  auto fill = [&](const std::set<std::pair<VertexId, VertexId>>& pairs,
                  std::vector<size_t>* offsets,
                  std::vector<CsrGraph::Index>* targets) {
    auto it = pairs.begin();
    for (const VertexId v : oracle.ids) {
      for (; it != pairs.end() && it->first == v; ++it) {
        targets->push_back(rank.at(it->second));
      }
      offsets->push_back(targets->size());
    }
  };
  fill(t.edges, &oracle.out_offsets, &oracle.out_targets);
  fill(reversed, &oracle.in_offsets, &oracle.in_targets);
  return oracle;
}

void ExpectMatchesOracle(const CsrGraph& csr, const OracleCsr& want) {
  ASSERT_EQ(csr.ids(), want.ids);
  ASSERT_EQ(csr.out_offsets(), want.out_offsets);
  ASSERT_EQ(csr.in_offsets(), want.in_offsets);
  std::vector<CsrGraph::Index> out_targets;
  std::vector<CsrGraph::Index> in_targets;
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    const auto out = csr.OutNeighbors(v);
    const auto in = csr.InNeighbors(v);
    out_targets.insert(out_targets.end(), out.begin(), out.end());
    in_targets.insert(in_targets.end(), in.begin(), in.end());
  }
  EXPECT_EQ(out_targets, want.out_targets);
  EXPECT_EQ(in_targets, want.in_targets);
}

TEST(CsrGraphTest, MatchesSortedEdgeSetOracle) {
  // Ids spread over the whole 64-bit range (an odd multiplier is a
  // bijection), so every 11-bit radix digit varies, plus ids at the
  // boundaries of the low digits, around 2^32 and at the top.
  auto id = [](size_t i) {
    return static_cast<VertexId>(i) * 0x9E3779B97F4A7C15ull;
  };
  const std::vector<VertexId> boundary_ids = {1,
                                             2047,
                                             2048,
                                             (VertexId{1} << 22) - 1,
                                             UINT32_MAX,
                                             VertexId{1} << 32,
                                             (VertexId{1} << 32) + 1,
                                             UINT64_MAX - 1};
  const size_t n = 400;

  // Churn: two hubs (one shrinks back below kAdjIndexThreshold, one
  // stays above it), random edge flips, removed vertices whose slots are
  // reused by new ids, and isolated vertices.
  TrackedGraph churn;
  for (size_t i = 0; i < n; ++i) churn.AddVertex(id(i));
  const VertexId shrinking_hub = id(1);
  const VertexId hub = id(2);
  for (size_t i = 3; i < n; ++i) {
    churn.AddEdge(shrinking_hub, id(i));
    churn.AddEdge(id(i), shrinking_hub);
    if (i % 3 == 0) churn.AddEdge(hub, id(i));
    if (i % 5 == 0) churn.AddEdge(id(i), hub);
  }
  for (size_t i = 3; i < n; ++i) {
    if (i % 7 == 0) {
      churn.RemoveVertex(id(i));
    } else if (i % 16 != 0) {
      churn.RemoveEdge(shrinking_hub, id(i));
      churn.RemoveEdge(id(i), shrinking_hub);
    }
  }
  ASSERT_LT(churn.graph.OutDegree(shrinking_hub).value(), kAdjIndexThreshold);
  ASSERT_LT(churn.graph.InDegree(shrinking_hub).value(), kAdjIndexThreshold);
  ASSERT_GT(churn.graph.OutDegree(hub).value(), kAdjIndexThreshold);
  ASSERT_GT(churn.graph.InDegree(hub).value(), kAdjIndexThreshold);
  Rng rng(31);
  for (int step = 0; step < 6000; ++step) {
    const VertexId a = id(rng.NextBounded(n));
    const VertexId b = id(rng.NextBounded(n));
    if (a == b || !churn.vertices.contains(a) ||
        !churn.vertices.contains(b)) {
      continue;
    }
    if (churn.edges.contains({a, b})) {
      churn.RemoveEdge(a, b);
    } else {
      churn.AddEdge(a, b);
    }
  }
  for (size_t i = 10; i < n; i += 10) {
    if (churn.vertices.contains(id(i))) churn.RemoveVertex(id(i));
  }
  const std::vector<VertexId> live(churn.vertices.begin(),
                                   churn.vertices.end());
  for (size_t k = 0; k < boundary_ids.size(); ++k) {
    churn.AddVertex(boundary_ids[k]);
    churn.AddEdge(boundary_ids[k], live[3 * k]);
    churn.AddEdge(live[3 * k + 1], boundary_ids[k]);
    if (live[3 * k + 1] != hub) churn.AddEdge(hub, boundary_ids[k]);
  }
  churn.AddEdge(boundary_ids.front(), boundary_ids.back());
  churn.AddEdge(boundary_ids.back(), boundary_ids.front());
  for (size_t i = n; i < n + 8; ++i) churn.AddVertex(id(i));  // isolated

  // Vertices but no edges, with the same id spread.
  TrackedGraph edgeless;
  for (size_t i = 0; i < 50; ++i) edgeless.AddVertex(id(i));
  for (const VertexId v : boundary_ids) edgeless.AddVertex(v);

  for (const auto& [name, t] : {std::pair{"churn", &churn},
                                std::pair{"edgeless", &edgeless}}) {
    ASSERT_EQ(t->graph.num_vertices(), t->vertices.size()) << name;
    ASSERT_EQ(t->graph.num_edges(), t->edges.size()) << name;
    const OracleCsr want = SortedEdgeSetOracle(*t);
    for (size_t threads : {1, 2, 3, 8}) {
      SCOPED_TRACE(std::string(name) + ", threads=" + std::to_string(threads));
      ExpectMatchesOracle(CsrGraph::FromGraph(t->graph, threads), want);
    }
  }
}

}  // namespace
}  // namespace graphtides
