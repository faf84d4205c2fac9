// Golden tests for the parallel compute layer: every parallelized kernel
// must produce BIT-IDENTICAL results at threads 1, 2, 3 and 8 — across all
// generator models — because chunk layouts and reduction orders derive
// only from the input graph, never from the thread count. threads = 1
// runs the sequential paths (for WCC the union-find reference), so these
// tests pin the parallel implementations to the sequential golden ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/statistics.h"
#include "algorithms/triangles.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "graph/graph.h"

namespace graphtides {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 3, 8};

std::unique_ptr<GeneratorModel> MakeModel(const std::string& name) {
  if (name == "social") return std::make_unique<SocialNetworkModel>();
  if (name == "ddos") return std::make_unique<DdosModel>();
  if (name == "blockchain") return std::make_unique<BlockchainModel>();
  return std::make_unique<EventMixModel>(EventMixModelOptions{});
}

Graph MakeGraphFor(const std::string& model_name) {
  auto model = MakeModel(model_name);
  StreamGeneratorOptions options;
  options.rounds = 3000;
  options.seed = 5;
  auto stream = StreamGenerator(model.get(), options).Generate();
  EXPECT_TRUE(stream.ok()) << model_name << ": "
                           << stream.status().ToString();
  Graph graph;
  if (stream.ok()) {
    const Status st = graph.ApplyAll(stream->events);
    EXPECT_TRUE(st.ok()) << model_name << ": " << st.ToString();
  }
  return graph;
}

bool SameCsr(const CsrGraph& a, const CsrGraph& b) {
  if (a.ids() != b.ids() || a.out_offsets() != b.out_offsets() ||
      a.in_offsets() != b.in_offsets()) {
    return false;
  }
  for (CsrGraph::Index v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.OutNeighbors(v);
    const auto bo = b.OutNeighbors(v);
    const auto ai = a.InNeighbors(v);
    const auto bi = b.InNeighbors(v);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) ||
        !std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) {
      return false;
    }
  }
  return true;
}

/// Independent push-style power iteration (accumulates over out-edges in
/// a different order than the kernel's pull), for near-equality checks.
std::vector<double> ReferencePageRank(const CsrGraph& graph,
                                      const PageRankOptions& options) {
  const size_t n = graph.num_vertices();
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (size_t v = 0; v < n; ++v) {
      if (graph.OutDegree(static_cast<CsrGraph::Index>(v)) == 0) {
        dangling += rank[v];
      }
    }
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;
    std::fill(next.begin(), next.end(), base);
    for (size_t u = 0; u < n; ++u) {
      const auto out = graph.OutNeighbors(static_cast<CsrGraph::Index>(u));
      if (out.empty()) continue;
      const double share =
          options.damping * rank[u] / static_cast<double>(out.size());
      for (CsrGraph::Index v : out) next[v] += share;
    }
    double delta = 0.0;
    for (size_t v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (delta < options.tolerance) break;
  }
  return rank;
}

/// Brute-force triangle and wedge counts over the undirected view,
/// independent of the kernel: std::set neighborhoods (flattened to sorted
/// vectors for speed), one std::set_intersection per undirected edge. Each
/// triangle closes three edges.
struct OracleTriangles {
  uint64_t edge_closures = 0;
  uint64_t wedges = 0;
};

OracleTriangles BruteForceTriangles(const CsrGraph& graph) {
  using Index = CsrGraph::Index;
  const size_t n = graph.num_vertices();
  std::vector<std::set<Index>> sets(n);
  for (Index u = 0; u < n; ++u) {
    for (Index v : graph.OutNeighbors(u)) {
      sets[u].insert(v);
      sets[v].insert(u);
    }
  }
  std::vector<std::vector<Index>> adj(n);
  for (size_t u = 0; u < n; ++u) adj[u].assign(sets[u].begin(), sets[u].end());
  OracleTriangles oracle;
  std::vector<Index> common;
  for (Index u = 0; u < n; ++u) {
    const uint64_t d = adj[u].size();
    if (d >= 2) oracle.wedges += d * (d - 1) / 2;
    for (Index v : adj[u]) {
      if (v <= u) continue;
      common.clear();
      std::set_intersection(adj[u].begin(), adj[u].end(), adj[v].begin(),
                            adj[v].end(), std::back_inserter(common));
      oracle.edge_closures += common.size();
    }
  }
  return oracle;
}

class ParallelKernelsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelKernelsTest, CsrBuildIsThreadCountInvariant) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph reference = CsrGraph::FromGraph(graph, 1);
  ASSERT_GT(reference.num_vertices(), 0u);
  for (const size_t threads : kThreadCounts) {
    const CsrGraph csr = CsrGraph::FromGraph(graph, threads);
    EXPECT_TRUE(SameCsr(reference, csr)) << "threads=" << threads;
  }
}

TEST_P(ParallelKernelsTest, PageRankIsBitIdenticalAcrossThreadCounts) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph csr = CsrGraph::FromGraph(graph, 1);
  PageRankOptions options;
  options.threads = 1;
  const PageRankResult reference = PageRank(csr, options);
  double total = 0.0;
  for (double r : reference.ranks) total += r;
  EXPECT_NEAR(total, 1.0, 1e-9);

  for (const size_t threads : kThreadCounts) {
    options.threads = threads;
    const PageRankResult pr = PageRank(csr, options);
    EXPECT_EQ(pr.iterations, reference.iterations) << "threads=" << threads;
    // Bit-identical, not merely close: same chunks, same fold order.
    ASSERT_EQ(pr.ranks.size(), reference.ranks.size());
    for (size_t v = 0; v < pr.ranks.size(); ++v) {
      ASSERT_EQ(pr.ranks[v], reference.ranks[v])
          << "threads=" << threads << " vertex=" << v;
    }
  }

  // And numerically consistent with an independent push-style iteration.
  const std::vector<double> push = ReferencePageRank(csr, options);
  ASSERT_EQ(push.size(), reference.ranks.size());
  for (size_t v = 0; v < push.size(); ++v) {
    EXPECT_NEAR(push[v], reference.ranks[v], 1e-8) << "vertex=" << v;
  }
}

TEST_P(ParallelKernelsTest, WccMatchesUnionFindGolden) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph csr = CsrGraph::FromGraph(graph, 1);
  // threads = 1 is the sequential union-find — the golden reference.
  const ComponentsResult golden =
      WeaklyConnectedComponents(csr, {.threads = 1});
  for (const size_t threads : kThreadCounts) {
    const ComponentsResult wcc =
        WeaklyConnectedComponents(csr, {.threads = threads});
    EXPECT_EQ(wcc.num_components, golden.num_components)
        << "threads=" << threads;
    EXPECT_EQ(wcc.component, golden.component) << "threads=" << threads;
    EXPECT_EQ(wcc.sizes, golden.sizes) << "threads=" << threads;
  }
}

TEST_P(ParallelKernelsTest, TrianglesAreThreadCountInvariant) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph csr = CsrGraph::FromGraph(graph, 1);
  const uint64_t reference = CountTriangles(csr, 1);
  const double reference_gcc = GlobalClusteringCoefficient(csr, 1);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(CountTriangles(csr, threads), reference)
        << "threads=" << threads;
    // Integer triangle and wedge counts divide identically on every path.
    EXPECT_EQ(GlobalClusteringCoefficient(csr, threads), reference_gcc)
        << "threads=" << threads;
  }
}

TEST_P(ParallelKernelsTest, TrianglesMatchBruteForceOracle) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph csr = CsrGraph::FromGraph(graph, 1);
  const OracleTriangles oracle = BruteForceTriangles(csr);
  ASSERT_EQ(oracle.edge_closures % 3, 0u);
  const uint64_t triangles = oracle.edge_closures / 3;
  const double gcc =
      oracle.wedges == 0 ? 0.0
                         : 3.0 * static_cast<double>(triangles) /
                               static_cast<double>(oracle.wedges);
  for (const size_t threads : kThreadCounts) {
    EXPECT_EQ(CountTriangles(csr, threads), triangles)
        << "threads=" << threads;
    EXPECT_EQ(GlobalClusteringCoefficient(csr, threads), gcc)
        << "threads=" << threads;
  }
}

TEST_P(ParallelKernelsTest, StatisticsAreThreadCountInvariant) {
  const Graph graph = MakeGraphFor(GetParam());
  const CsrGraph csr = CsrGraph::FromGraph(graph, 1);
  const GraphStatistics reference = ComputeGraphStatistics(csr, 1);
  for (const size_t threads : kThreadCounts) {
    const GraphStatistics s = ComputeGraphStatistics(csr, threads);
    EXPECT_EQ(s.num_vertices, reference.num_vertices);
    EXPECT_EQ(s.num_edges, reference.num_edges);
    EXPECT_EQ(s.density, reference.density) << "threads=" << threads;
    EXPECT_EQ(s.mean_out_degree, reference.mean_out_degree)
        << "threads=" << threads;
    EXPECT_EQ(s.max_out_degree, reference.max_out_degree);
    EXPECT_EQ(s.max_in_degree, reference.max_in_degree);
    EXPECT_EQ(s.isolated_vertices, reference.isolated_vertices);
    EXPECT_EQ(s.out_degree_gini, reference.out_degree_gini)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ParallelKernelsTest,
                         ::testing::Values("social", "ddos", "blockchain",
                                           "mix"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace graphtides
