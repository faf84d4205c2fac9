#include "algorithms/pagerank.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "common/random.h"
#include "graph/graph.h"

namespace graphtides {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

Graph Cycle(size_t n) {
  Graph g;
  for (VertexId v = 0; v < n; ++v) EXPECT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_TRUE(g.AddEdge(v, (v + 1) % n).ok());
  }
  return g;
}

TEST(PageRankTest, EmptyGraph) {
  const PageRankResult r = PageRank(CsrGraph::FromGraph(Graph()));
  EXPECT_TRUE(r.ranks.empty());
  EXPECT_EQ(r.iterations, 0u);
}

TEST(PageRankTest, SingleVertex) {
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  const PageRankResult r = PageRank(CsrGraph::FromGraph(g));
  ASSERT_EQ(r.ranks.size(), 1u);
  EXPECT_NEAR(r.ranks[0], 1.0, 1e-6);
}

TEST(PageRankTest, CycleIsUniform) {
  const size_t n = 8;
  const PageRankResult r = PageRank(CsrGraph::FromGraph(Cycle(n)));
  ASSERT_EQ(r.ranks.size(), n);
  EXPECT_TRUE(r.converged);
  for (double rank : r.ranks) {
    EXPECT_NEAR(rank, 1.0 / static_cast<double>(n), 1e-6);
  }
}

TEST(PageRankTest, RanksSumToOne) {
  Rng rng(3);
  Graph g;
  const size_t n = 100;
  for (VertexId v = 0; v < n; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (int i = 0; i < 400; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      ASSERT_TRUE(g.AddEdge(a, b).ok());
    }
  }
  const PageRankResult r = PageRank(CsrGraph::FromGraph(g));
  EXPECT_NEAR(Sum(r.ranks), 1.0, 1e-6);
}

TEST(PageRankTest, StarHubOutranksLeaves) {
  // Leaves all point at the hub.
  Graph g;
  ASSERT_TRUE(g.AddVertex(0).ok());
  for (VertexId v = 1; v <= 10; ++v) {
    ASSERT_TRUE(g.AddVertex(v).ok());
    ASSERT_TRUE(g.AddEdge(v, 0).ok());
  }
  const CsrGraph csr = CsrGraph::FromGraph(g);
  const PageRankResult r = PageRank(csr);
  CsrGraph::Index hub;
  ASSERT_TRUE(csr.IndexOf(0, &hub));
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    if (v != hub) {
      EXPECT_GT(r.ranks[hub], r.ranks[v]);
    }
  }
}

TEST(PageRankTest, TwoVertexClosedPairAnalytic) {
  // 1 <-> 2 is symmetric: both 0.5 regardless of damping.
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  const PageRankResult r = PageRank(CsrGraph::FromGraph(g));
  EXPECT_NEAR(r.ranks[0], 0.5, 1e-9);
  EXPECT_NEAR(r.ranks[1], 0.5, 1e-9);
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // 1 -> 2, 2 dangling. Closed-form with uniform dangling redistribution:
  // solve x1 = (1-d)/2 + d*x2/2, x2 = (1-d)/2 + d*x1 + d*x2/2.
  Graph g;
  ASSERT_TRUE(g.AddVertex(1).ok());
  ASSERT_TRUE(g.AddVertex(2).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  const double d = 0.85;
  PageRankOptions options;
  options.damping = d;
  options.tolerance = 1e-14;
  options.max_iterations = 10000;
  const PageRankResult r = PageRank(CsrGraph::FromGraph(g), options);
  // From the two equations with x1 + x2 = 1: x1 = 1/(2+d).
  const double x1 = 1.0 / (2.0 + d);
  EXPECT_NEAR(r.ranks[0], x1, 1e-9);
  EXPECT_NEAR(r.ranks[1], 1.0 - x1, 1e-9);
  EXPECT_NEAR(Sum(r.ranks), 1.0, 1e-9);
}

TEST(PageRankTest, MaxIterationsRespected) {
  PageRankOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;  // never converge by tolerance
  const PageRankResult r = PageRank(CsrGraph::FromGraph(Cycle(5)), options);
  EXPECT_EQ(r.iterations, 3u);
  EXPECT_FALSE(r.converged);
}

TEST(TopKByRankTest, OrdersAndTruncates) {
  const std::vector<double> ranks = {0.1, 0.4, 0.2, 0.3};
  const auto top2 = TopKByRank(ranks, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], 1u);
  EXPECT_EQ(top2[1], 3u);
}

TEST(TopKByRankTest, TieBreaksByIndex) {
  const std::vector<double> ranks = {0.5, 0.5, 0.5};
  const auto top = TopKByRank(ranks, 3);
  EXPECT_EQ(top, (std::vector<CsrGraph::Index>{0, 1, 2}));
}

TEST(TopKByRankTest, KLargerThanSize) {
  const auto top = TopKByRank({0.2, 0.8}, 10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
}

TEST(MedianRelativeErrorTest, ExactMatchIsZero) {
  EXPECT_DOUBLE_EQ(MedianRelativeError({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

TEST(MedianRelativeErrorTest, KnownError) {
  // Errors: 0.1/0.5 = 0.2 and 0 -> median 0.1.
  EXPECT_NEAR(MedianRelativeError({0.6, 0.5}, {0.5, 0.5}), 0.1, 1e-12);
}

TEST(MedianRelativeErrorTest, SkipsZeroExact) {
  EXPECT_NEAR(MedianRelativeError({0.6, 123.0}, {0.5, 0.0}), 0.2, 1e-12);
}

// A star: leaves 1..4 point at hub 0, which joins last.
std::vector<Event> StarStream() {
  std::vector<Event> stream;
  for (VertexId v = 1; v <= 4; ++v) stream.push_back(Event::AddVertex(v));
  stream.push_back(Event::Marker("M"));
  stream.push_back(Event::AddVertex(0));
  for (VertexId v = 1; v <= 4; ++v) stream.push_back(Event::AddEdge(v, 0));
  return stream;
}

TEST(TopRankedVerticesTest, HubOfTheFinalGraphFirst) {
  const std::vector<VertexId> top = TopRankedVertices(StarStream(), 2, 1);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);  // the leaves tie; the lowest index wins
}

TEST(RetrospectiveRankErrorsTest, ScoresAgainstTheGraphDeliveredByThen) {
  // Graph event i is delivered at i seconds (the marker is not one).
  std::vector<Timestamp> delivery;
  for (int i = 0; i < 9; ++i) delivery.push_back(Timestamp::FromSeconds(i));
  const std::vector<VertexId> tracked = {0, 1};

  // The exact ranks of the final star, for a perfect final estimate.
  Graph star;
  ASSERT_TRUE(star.ApplyAll(StarStream()).ok());
  const CsrGraph csr = CsrGraph::FromGraph(star);
  const PageRankResult exact = PageRank(csr);
  CsrGraph::Index hub;
  CsrGraph::Index leaf;
  ASSERT_TRUE(csr.IndexOf(0, &hub));
  ASSERT_TRUE(csr.IndexOf(1, &leaf));

  const std::vector<RankEstimate> estimates = {
      // Nothing delivered yet.
      {Timestamp::FromSeconds(-1), {0.5, 0.5}},
      // Leaves 1..4 only (uniform 0.25 each); vertex 0 does not exist yet,
      // so only vertex 1 is scored: |0.5 - 0.25| / 0.25.
      {Timestamp::FromSeconds(3), {0.5, 0.5}},
      // The final graph, estimated exactly.
      {Timestamp::FromSeconds(8), {exact.ranks[hub], exact.ranks[leaf]}},
  };
  const std::vector<std::optional<double>> errors =
      RetrospectiveRankErrors(StarStream(), delivery, estimates, tracked, 1);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_FALSE(errors[0].has_value());
  ASSERT_TRUE(errors[1].has_value());
  EXPECT_NEAR(*errors[1], 1.0, 1e-9);
  ASSERT_TRUE(errors[2].has_value());
  EXPECT_DOUBLE_EQ(*errors[2], 0.0);
}

TEST(RetrospectiveRankErrorsTest, NoTrackedVertexYetIsNotAScore) {
  std::vector<Timestamp> delivery;
  for (int i = 0; i < 9; ++i) delivery.push_back(Timestamp::FromSeconds(i));
  // Only the leaves exist at t = 2; the tracked hub is not scored as 0.
  const std::vector<std::optional<double>> errors = RetrospectiveRankErrors(
      StarStream(), delivery, {{Timestamp::FromSeconds(2), {0.0}}}, {0}, 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_FALSE(errors[0].has_value());
}

}  // namespace
}  // namespace graphtides
