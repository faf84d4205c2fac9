#include "algorithms/online_pagerank.h"

#include <gtest/gtest.h>

#include "algorithms/pagerank.h"
#include "common/random.h"
#include "graph/csr.h"

namespace graphtides {
namespace {

/// Applies events to both the graph and the online rank.
void Feed(Graph& graph, OnlinePageRank& rank, const Event& event) {
  ASSERT_TRUE(graph.Apply(event).ok());
  rank.OnEventApplied(event);
}

/// Runs pushes until convergence (bounded).
void Settle(OnlinePageRank& rank) {
  for (int i = 0; i < 10000 && rank.HasPendingWork(); ++i) {
    rank.ProcessPending(1000);
  }
  EXPECT_FALSE(rank.HasPendingWork());
}

double MaxAbsRankDiff(const Graph& graph, const OnlinePageRank& online) {
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  PageRankOptions options;
  options.tolerance = 1e-12;
  options.max_iterations = 500;
  const PageRankResult exact = PageRank(csr, options);
  double max_diff = 0.0;
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    const double approx = online.RankOf(csr.IdOf(v));
    max_diff = std::max(max_diff, std::abs(approx - exact.ranks[v]));
  }
  return max_diff;
}

TEST(OnlinePageRankTest, EmptyHasNoWork) {
  Graph g;
  OnlinePageRank rank;
  EXPECT_FALSE(rank.HasPendingWork());
  EXPECT_EQ(rank.RankOf(1), 0.0);
  EXPECT_TRUE(rank.NormalizedRanks().empty());
}

TEST(OnlinePageRankTest, SingleVertexRankIsOne) {
  Graph g;
  OnlinePageRank rank;
  Feed(g, rank, Event::AddVertex(7));
  Settle(rank);
  EXPECT_NEAR(rank.RankOf(7), 1.0, 1e-9);
}

TEST(OnlinePageRankTest, SymmetricPairConverges) {
  Graph g;
  OnlinePageRankOptions options;
  options.push_threshold = 1e-8;
  OnlinePageRank rank(options);
  Feed(g, rank, Event::AddVertex(1));
  Feed(g, rank, Event::AddVertex(2));
  Feed(g, rank, Event::AddEdge(1, 2));
  Feed(g, rank, Event::AddEdge(2, 1));
  Settle(rank);
  EXPECT_NEAR(rank.RankOf(1), 0.5, 1e-3);
  EXPECT_NEAR(rank.RankOf(2), 0.5, 1e-3);
}

TEST(OnlinePageRankTest, ConvergesToBatchOnStaticGraph) {
  Rng rng(3);
  Graph g;
  OnlinePageRankOptions options;
  options.push_threshold = 1e-7;
  OnlinePageRank rank(options);
  const size_t n = 40;
  for (VertexId v = 0; v < n; ++v) Feed(g, rank, Event::AddVertex(v));
  for (int i = 0; i < 150; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) Feed(g, rank, Event::AddEdge(a, b));
  }
  Settle(rank);
  EXPECT_LT(MaxAbsRankDiff(g, rank), 0.01);
}

TEST(OnlinePageRankTest, TracksTopologyChangesIncludingRemovals) {
  Rng rng(11);
  Graph g;
  OnlinePageRankOptions options;
  options.push_threshold = 1e-7;
  OnlinePageRank rank(options);
  const size_t n = 30;
  for (VertexId v = 0; v < n; ++v) Feed(g, rank, Event::AddVertex(v));
  std::vector<EdgeId> edges;
  for (int i = 0; i < 120; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      Feed(g, rank, Event::AddEdge(a, b));
      edges.push_back({a, b});
    }
  }
  // Remove a third of the edges.
  for (size_t i = 0; i < edges.size(); i += 3) {
    if (g.HasEdge(edges[i].src, edges[i].dst)) {
      Feed(g, rank, Event::RemoveEdge(edges[i].src, edges[i].dst));
    }
  }
  Settle(rank);
  // With invariant-preserving corrections, deletions no longer leave stale
  // propagated mass: the settled estimate tracks the current graph tightly.
  EXPECT_LT(MaxAbsRankDiff(g, rank), 0.01);
}

TEST(OnlinePageRankTest, HubAccumulatesRank) {
  Graph g;
  OnlinePageRank rank;
  Feed(g, rank, Event::AddVertex(0));
  for (VertexId v = 1; v <= 12; ++v) {
    Feed(g, rank, Event::AddVertex(v));
    Feed(g, rank, Event::AddEdge(v, 0));
  }
  Settle(rank);
  for (VertexId v = 1; v <= 12; ++v) {
    EXPECT_GT(rank.RankOf(0), rank.RankOf(v));
  }
}

TEST(OnlinePageRankTest, StaleResultBeforeProcessing) {
  // Without processing pushes, estimates lag — the latency/accuracy
  // trade-off the framework measures.
  Graph g;
  OnlinePageRank rank;
  Feed(g, rank, Event::AddVertex(1));
  Feed(g, rank, Event::AddVertex(2));
  Feed(g, rank, Event::AddEdge(1, 2));
  EXPECT_TRUE(rank.HasPendingWork());
  // Nothing processed: vertex 2 has no estimate yet.
  const double before = rank.RankOf(2);
  Settle(rank);
  const double after = rank.RankOf(2);
  EXPECT_GT(after, before);
}

TEST(OnlinePageRankTest, RemovedVertexLosesRank) {
  Graph g;
  OnlinePageRank rank;
  Feed(g, rank, Event::AddVertex(1));
  Feed(g, rank, Event::AddVertex(2));
  Settle(rank);
  EXPECT_GT(rank.RankOf(2), 0.0);
  Feed(g, rank, Event::RemoveVertex(2));
  Settle(rank);
  EXPECT_EQ(rank.RankOf(2), 0.0);
  EXPECT_NEAR(rank.RankOf(1), 1.0, 1e-6);
}

TEST(OnlinePageRankTest, NormalizedRanksSumToOne) {
  Rng rng(19);
  Graph g;
  OnlinePageRank rank;
  for (VertexId v = 0; v < 20; ++v) Feed(g, rank, Event::AddVertex(v));
  for (int i = 0; i < 50; ++i) {
    const VertexId a = rng.NextBounded(20);
    const VertexId b = rng.NextBounded(20);
    if (a != b && !g.HasEdge(a, b)) Feed(g, rank, Event::AddEdge(a, b));
  }
  Settle(rank);
  double sum = 0.0;
  for (const auto& [v, r] : rank.NormalizedRanks()) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(OnlinePageRankCoreTest, RemoteEmissionForNonLocalVertices) {
  // A core owning only even vertices must emit residual deltas for odd
  // targets of its out-edges.
  OnlinePageRankOptions options;
  OnlinePageRankCore core(options, 2, 0);
  core.AddVertex(0);
  core.AddVertex(2);
  core.AddEdge(0, 1);
  core.AddEdge(0, 2);
  core.AddEdge(2, 1);
  double remote_mass = 0.0;
  size_t remote_count = 0;
  while (core.HasPendingWork()) {
    core.ProcessPushes(100, [&](VertexId target, double delta) {
      EXPECT_EQ(target % 2, 1u);
      remote_mass += delta;
      ++remote_count;
    });
  }
  EXPECT_GT(remote_count, 0u);
  EXPECT_GT(remote_mass, 0.0);
}

TEST(OnlinePageRankCoreTest, TopologyCorrectionsFlushedToRemotes) {
  // Edge churn at a local vertex with an already-distributed score must
  // emit signed corrections toward remote neighbors.
  OnlinePageRankOptions options;
  OnlinePageRankCore core(options, 2, 0);  // owns 0; 1 and 3 are remote
  core.AddVertex(0);
  core.AddEdge(0, 1);
  // Distribute the score.
  while (core.HasPendingWork()) {
    core.ProcessPushes(100, [](VertexId, double) {});
  }
  const double score = core.EstimateOf(0);
  ASSERT_GT(score, 0.0);
  // Adding a second out-edge halves 1's share: expect a negative delta to
  // 1 and a positive delta to 3.
  core.AddEdge(0, 3);
  double delta_to_1 = 0.0;
  double delta_to_3 = 0.0;
  core.ProcessPushes(100, [&](VertexId target, double delta) {
    if (target == 1) delta_to_1 += delta;
    if (target == 3) delta_to_3 += delta;
  });
  EXPECT_LT(delta_to_1, 0.0);
  EXPECT_GT(delta_to_3, 0.0);
  EXPECT_NEAR(delta_to_1 + delta_to_3, 0.0, 1e-12);
}

TEST(OnlinePageRankCoreTest, ResidualForAbsentVertexIsDropped) {
  // A vertex is present from AddVertex until RemoveVertex. A push over a
  // stale edge gives a removed local vertex "ghost" state again; deltas
  // for it, and for never-added ids, are dropped until it is re-added.
  OnlinePageRankOptions options;
  OnlinePageRankCore core(options, 1, 0);
  core.AddVertex(0);
  core.AddVertex(1);
  core.AddEdge(0, 1);
  core.RemoveVertex(1, {});
  core.AddResidualIfPresent(7, 5.0);
  EXPECT_EQ(core.num_tracked(), 1u);
  while (core.HasPendingWork()) {
    core.ProcessPushes(100, [](VertexId, double) {});
  }
  ASSERT_EQ(core.num_tracked(), 2u);  // 1 is back as a ghost
  const double ghost = core.EstimateOf(1);
  core.AddResidualIfPresent(1, 5.0);
  EXPECT_FALSE(core.HasPendingWork());
  core.AddVertex(1);
  core.AddResidualIfPresent(1, 5.0);
  while (core.HasPendingWork()) {
    core.ProcessPushes(100, [](VertexId, double) {});
  }
  EXPECT_NEAR(core.EstimateOf(1), ghost + 6.0, 1e-3);
}

TEST(OnlinePageRankTest, InterleavedProcessingStaysAccurate) {
  // The invariant-preserving corrections keep interleaved ingest+compute
  // convergent — the failure mode of naive re-injection schemes.
  Rng rng(29);
  Graph g;
  OnlinePageRankOptions options;
  options.push_threshold = 1e-6;
  OnlinePageRank rank(options);
  const size_t n = 50;
  for (VertexId v = 0; v < n; ++v) {
    Feed(g, rank, Event::AddVertex(v));
    rank.ProcessPending(32);  // compute during ingestion
  }
  for (int i = 0; i < 400; ++i) {
    const VertexId a = rng.NextBounded(n);
    const VertexId b = rng.NextBounded(n);
    if (a != b && !g.HasEdge(a, b)) {
      Feed(g, rank, Event::AddEdge(a, b));
    }
    rank.ProcessPending(32);
  }
  Settle(rank);
  EXPECT_LT(MaxAbsRankDiff(g, rank), 0.005);
}

}  // namespace
}  // namespace graphtides
