#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasVertex(1));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.GetVertexState(1).status().IsNotFound());
  EXPECT_TRUE(g.OutDegree(1).status().IsNotFound());
}

TEST(GraphTest, AddVertexWithState) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(7, "hello").ok());
  EXPECT_TRUE(g.HasVertex(7));
  EXPECT_EQ(g.GetVertexState(7).value(), "hello");
  EXPECT_TRUE(g.AddVertex(7).IsPreconditionFailed());
}

TEST(GraphTest, UpdateVertexState) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1, "v1").ok());
  ASSERT_TRUE(g.UpdateVertexState(1, "v2").ok());
  EXPECT_EQ(g.GetVertexState(1).value(), "v2");
  EXPECT_TRUE(g.UpdateVertexState(2, "x").IsPreconditionFailed());
}

TEST(GraphTest, EdgeLifecycle) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  EXPECT_TRUE(g.AddEdge(1, 1).IsPreconditionFailed());  // self loop
  EXPECT_TRUE(g.AddEdge(1, 3).IsPreconditionFailed());
  EXPECT_TRUE(g.AddEdge(3, 1).IsPreconditionFailed());
  ASSERT_TRUE(g.AddEdge(1, 2, "w").ok());
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 1));
  EXPECT_EQ(g.GetEdgeState(1, 2).value(), "w");
  EXPECT_TRUE(g.AddEdge(1, 2).IsPreconditionFailed());
  ASSERT_TRUE(g.UpdateEdgeState(1, 2, "w2").ok());
  EXPECT_EQ(g.GetEdgeState(1, 2).value(), "w2");
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.RemoveEdge(1, 2).IsPreconditionFailed());
  EXPECT_TRUE(g.UpdateEdgeState(1, 2, "x").IsPreconditionFailed());
}

TEST(GraphTest, DegreesTrackEdges) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  EXPECT_EQ(g.OutDegree(1).value(), 2u);
  EXPECT_EQ(g.InDegree(1).value(), 1u);
  EXPECT_EQ(g.Degree(1).value(), 3u);
  EXPECT_EQ(g.OutDegree(3).value(), 0u);
  EXPECT_EQ(g.InDegree(3).value(), 1u);
}

TEST(GraphTest, RemoveVertexCascades) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(3, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());
  ASSERT_TRUE(g.RemoveVertex(1).ok());
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_EQ(g.OutDegree(3).value(), 0u);   // 3->1 gone
  EXPECT_EQ(g.InDegree(2).value(), 0u);    // 1->2 gone
  EXPECT_TRUE(g.RemoveVertex(1).IsPreconditionFailed());
}

TEST(GraphTest, ApplyDispatchesAllEventTypes) {
  Graph g;
  ASSERT_TRUE(g.Apply(Event::AddVertex(1, "a")).ok());
  ASSERT_TRUE(g.Apply(Event::AddVertex(2, "b")).ok());
  ASSERT_TRUE(g.Apply(Event::AddEdge(1, 2, "e")).ok());
  ASSERT_TRUE(g.Apply(Event::UpdateVertex(1, "a2")).ok());
  ASSERT_TRUE(g.Apply(Event::UpdateEdge(1, 2, "e2")).ok());
  ASSERT_TRUE(g.Apply(Event::Marker("noop")).ok());
  ASSERT_TRUE(g.Apply(Event::SetRate(2.0)).ok());
  ASSERT_TRUE(g.Apply(Event::Pause(Duration::FromMillis(1))).ok());
  ASSERT_TRUE(g.Apply(Event::RemoveEdge(1, 2)).ok());
  ASSERT_TRUE(g.Apply(Event::RemoveVertex(2)).ok());
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.GetVertexState(1).value(), "a2");
}

TEST(GraphTest, ApplyAllStopsAtFirstFailureWithIndex) {
  Graph g;
  const std::vector<Event> events = {
      Event::AddVertex(1),
      Event::AddVertex(1),  // fails at index 1
      Event::AddVertex(2),
  };
  const Status st = g.ApplyAll(events);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("event 1"), std::string::npos);
  EXPECT_EQ(g.num_vertices(), 1u);  // stopped before index 2
}

TEST(GraphTest, IterationCoversAll) {
  Graph g;
  for (VertexId v : {1, 2, 3}) ASSERT_TRUE(g.AddVertex(v).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, "a").ok());
  ASSERT_TRUE(g.AddEdge(1, 3, "b").ok());

  size_t vertex_count = 0;
  g.ForEachVertex([&](VertexId, const std::string&) { ++vertex_count; });
  EXPECT_EQ(vertex_count, 3u);

  std::vector<VertexId> targets;
  g.ForEachOutEdge(1, [&](VertexId dst, const std::string&) {
    targets.push_back(dst);
  });
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<VertexId>{2, 3}));

  size_t in_count = 0;
  g.ForEachInEdge(3, [&](VertexId src) {
    EXPECT_EQ(src, 1u);
    ++in_count;
  });
  EXPECT_EQ(in_count, 1u);

  size_t edge_count = 0;
  g.ForEachEdge(
      [&](VertexId, VertexId, const std::string&) { ++edge_count; });
  EXPECT_EQ(edge_count, 2u);

  // Iterating a missing vertex is a no-op.
  g.ForEachOutEdge(99, [&](VertexId, const std::string&) { FAIL(); });
}

TEST(GraphTest, VertexIdsSnapshot) {
  Graph g;
  for (VertexId v : {5, 1, 9}) ASSERT_TRUE(g.AddVertex(v).ok());
  std::vector<VertexId> ids = g.VertexIds();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<VertexId>{1, 5, 9}));
}

TEST(GraphTest, CloneIsIndependent) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1, "orig").ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  Graph snapshot = g.Clone();
  ASSERT_TRUE(g.UpdateVertexState(1, "changed").ok());
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  EXPECT_EQ(snapshot.GetVertexState(1).value(), "orig");
  EXPECT_TRUE(snapshot.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(1, 2));
}

TEST(GraphTest, ClearResets) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  g.Clear();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  // Reusable after clear.
  EXPECT_TRUE(g.AddVertex(1).ok());
}

/// std::map/std::set reference for the random-stream test: which events
/// are valid, and what the graph holds afterwards.
struct ReferenceGraph {
  std::map<VertexId, std::string> vertices;
  std::map<std::pair<VertexId, VertexId>, std::string> edges;

  size_t OutDegree(VertexId v) const {
    return std::count_if(edges.begin(), edges.end(),
                         [v](const auto& e) { return e.first.first == v; });
  }
  size_t InDegree(VertexId v) const {
    return std::count_if(edges.begin(), edges.end(),
                         [v](const auto& e) { return e.first.second == v; });
  }

  /// Applies `e` if it is valid; returns whether it was.
  bool Apply(const Event& e) {
    const VertexId src = e.edge.src, dst = e.edge.dst;
    switch (e.type) {
      case EventType::kAddVertex:
        return vertices.try_emplace(e.vertex, e.payload).second;
      case EventType::kRemoveVertex:
        if (vertices.erase(e.vertex) == 0) return false;
        std::erase_if(edges, [&](const auto& edge) {
          return edge.first.first == e.vertex || edge.first.second == e.vertex;
        });
        return true;
      case EventType::kUpdateVertex: {
        auto it = vertices.find(e.vertex);
        if (it == vertices.end()) return false;
        it->second = e.payload;
        return true;
      }
      case EventType::kAddEdge:
        if (src == dst || !vertices.contains(src) || !vertices.contains(dst)) {
          return false;
        }
        return edges.try_emplace({src, dst}, e.payload).second;
      case EventType::kRemoveEdge:
        return edges.erase({src, dst}) == 1;
      case EventType::kUpdateEdge: {
        auto it = edges.find({src, dst});
        if (it == edges.end()) return false;
        it->second = e.payload;
        return true;
      }
      default:
        return true;
    }
  }
};

/// Compares every observable of `g` with `ref` over the id space [0, ids).
void ExpectSameGraph(const Graph& g, const ReferenceGraph& ref, VertexId ids) {
  ASSERT_EQ(g.num_vertices(), ref.vertices.size());
  ASSERT_EQ(g.num_edges(), ref.edges.size());
  for (VertexId v = 0; v < ids; ++v) {
    auto it = ref.vertices.find(v);
    ASSERT_EQ(g.HasVertex(v), it != ref.vertices.end()) << v;
    if (it == ref.vertices.end()) {
      EXPECT_TRUE(g.Degree(v).status().IsNotFound());
      continue;
    }
    EXPECT_EQ(g.GetVertexState(v).value(), it->second);
    const size_t out = ref.OutDegree(v), in = ref.InDegree(v);
    EXPECT_EQ(g.OutDegree(v).value(), out) << v;
    EXPECT_EQ(g.InDegree(v).value(), in) << v;
    EXPECT_EQ(g.Degree(v).value(), out + in) << v;
    std::vector<std::pair<VertexId, std::string>> got_out, want_out;
    g.ForEachOutEdge(v, [&](VertexId dst, const std::string& state) {
      got_out.emplace_back(dst, state);
    });
    std::vector<VertexId> got_in, want_in;
    g.ForEachInEdge(v, [&](VertexId src) { got_in.push_back(src); });
    for (const auto& [edge, state] : ref.edges) {
      if (edge.first == v) want_out.emplace_back(edge.second, state);
      if (edge.second == v) want_in.push_back(edge.first);
    }
    std::sort(got_out.begin(), got_out.end());
    std::sort(got_in.begin(), got_in.end());
    EXPECT_EQ(got_out, want_out) << v;
    EXPECT_EQ(got_in, want_in) << v;
    for (VertexId w = 0; w < ids; ++w) {
      auto edge = ref.edges.find({v, w});
      ASSERT_EQ(g.HasEdge(v, w), edge != ref.edges.end()) << v << "->" << w;
      if (edge != ref.edges.end()) {
        EXPECT_EQ(g.GetEdgeState(v, w).value(), edge->second);
      } else {
        EXPECT_TRUE(g.GetEdgeState(v, w).status().IsNotFound());
      }
    }
  }
  using VertexList = std::vector<std::pair<VertexId, std::string>>;
  using EdgeList =
      std::vector<std::pair<std::pair<VertexId, VertexId>, std::string>>;
  std::vector<VertexId> ids_got = g.VertexIds();
  VertexList vertices_got;
  g.ForEachVertex([&](VertexId v, const std::string& state) {
    vertices_got.emplace_back(v, state);
  });
  EdgeList edges_got;
  g.ForEachEdge([&](VertexId src, VertexId dst, const std::string& state) {
    edges_got.push_back({{src, dst}, state});
  });
  std::sort(ids_got.begin(), ids_got.end());
  std::sort(vertices_got.begin(), vertices_got.end());
  std::sort(edges_got.begin(), edges_got.end());
  std::vector<VertexId> ids_want;
  for (const auto& [v, state] : ref.vertices) ids_want.push_back(v);
  EXPECT_EQ(ids_got, ids_want);
  EXPECT_EQ(vertices_got, VertexList(ref.vertices.begin(), ref.vertices.end()));
  EXPECT_EQ(edges_got, EdgeList(ref.edges.begin(), ref.edges.end()));
}

TEST(GraphTest, ValidatorAgreementOnRandomStream) {
  // The Graph, the StreamValidator and a std::map reference must accept
  // exactly the same events of a seeded random stream over a small id
  // space, and the Graph must hold what the reference holds. Vertex 0 is
  // forced into a hub: periodic bursts wire it to every id and edge
  // endpoints pick it often, so its lists outgrow kAdjIndexThreshold and
  // vertex removals cascade through indexed lists. Removed ids are
  // re-added into reused slots.
  constexpr VertexId kIds = 48;
  constexpr VertexId kHub = 0;
  constexpr size_t kEvents = 3000;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Graph g;
    StreamValidator validator;
    ReferenceGraph ref;
    auto vertex = [&] { return static_cast<VertexId>(rng.NextBounded(kIds)); };
    auto endpoint = [&] { return rng.NextBool(0.35) ? kHub : vertex(); };
    auto state = [&] { return std::to_string(rng.NextBounded(1000)); };
    size_t hub_out_max = 0, hub_in_max = 0, hub_cascades = 0, readds = 0;
    std::set<VertexId> removed;
    std::map<EventType, size_t> rejected;

    auto apply = [&](const Event& e) {
      // A removal that touches the hub while its lists are indexed.
      const bool through_hub =
          (ref.OutDegree(kHub) > kAdjIndexThreshold ||
           ref.InDegree(kHub) > kAdjIndexThreshold) &&
          (e.vertex == kHub || ref.edges.contains({e.vertex, kHub}) ||
           ref.edges.contains({kHub, e.vertex}));
      const bool was_removed = removed.contains(e.vertex);
      const bool want = ref.Apply(e);
      ASSERT_EQ(g.Apply(e).ok(), want) << e;
      ASSERT_EQ(validator.Check(e).ok(), want) << e;
      if (!want) {
        ++rejected[e.type];
      } else if (e.type == EventType::kRemoveVertex) {
        removed.insert(e.vertex);
        if (through_hub) ++hub_cascades;
      } else if (e.type == EventType::kAddVertex && was_removed) {
        ++readds;
      }
      hub_out_max = std::max(hub_out_max, ref.OutDegree(kHub));
      hub_in_max = std::max(hub_in_max, ref.InDegree(kHub));
    };

    for (VertexId v = 0; v < kIds; ++v) apply(Event::AddVertex(v));
    for (size_t i = 0; i < kEvents; ++i) {
      if (i % 600 == 0) {
        // Hub burst: wire the hub to every id both ways (self-loops,
        // duplicates and missing endpoints included), in random order.
        std::vector<VertexId> order(kIds);
        for (VertexId v = 0; v < kIds; ++v) order[v] = v;
        for (size_t k = kIds; k > 1; --k) {
          std::swap(order[k - 1], order[rng.NextBounded(k)]);
        }
        for (VertexId v : order) {
          apply(Event::AddEdge(kHub, v, state()));
          apply(Event::AddEdge(v, kHub, state()));
        }
      }
      const uint64_t kind = rng.NextBounded(100);
      if (kind < 8) {
        apply(Event::AddVertex(vertex(), state()));
      } else if (kind < 14) {
        apply(Event::RemoveVertex(vertex()));
      } else if (kind < 20) {
        apply(Event::UpdateVertex(vertex(), state()));
      } else if (kind < 62) {
        const VertexId src = endpoint();
        apply(Event::AddEdge(src, rng.NextBool(0.05) ? src : endpoint(),
                             state()));
      } else if (kind < 84) {
        // Mostly an existing edge, sometimes an absent one.
        if (!ref.edges.empty() && rng.NextBool(0.8)) {
          auto it = ref.edges.begin();
          std::advance(it, rng.NextBounded(ref.edges.size()));
          apply(Event::RemoveEdge(it->first.first, it->first.second));
        } else {
          apply(Event::RemoveEdge(endpoint(), endpoint()));
        }
      } else {
        apply(Event::UpdateEdge(endpoint(), endpoint(), state()));
      }
      if (HasFatalFailure()) return;
      if (i % 250 == 249) {
        ExpectSameGraph(g, ref, kIds);
        ExpectSameGraph(g.Clone(), ref, kIds);  // deep-copies hub indexes
      }
    }
    ExpectSameGraph(g, ref, kIds);
    EXPECT_EQ(g.num_vertices(), validator.num_vertices());
    EXPECT_EQ(g.num_edges(), validator.num_edges());

    // The stream reached what it is meant to exercise.
    EXPECT_GT(hub_out_max, kAdjIndexThreshold);
    EXPECT_GT(hub_in_max, kAdjIndexThreshold);
    EXPECT_GT(hub_cascades, 0u);
    EXPECT_GT(readds, 0u);
    for (EventType type :
         {EventType::kAddVertex, EventType::kRemoveVertex,
          EventType::kUpdateVertex, EventType::kAddEdge,
          EventType::kRemoveEdge, EventType::kUpdateEdge}) {
      EXPECT_GT(rejected[type], 0u) << "no invalid event of type "
                                    << static_cast<int>(type);
    }
  }
}

}  // namespace
}  // namespace graphtides
