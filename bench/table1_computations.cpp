// Table 1 reproduction: the paper's catalogue of example computations for
// stream-based graph systems, executed end-to-end on generated graphs.
//
//   Graph statistics     global properties, degree distribution
//   Graph properties     PageRank, cycle detection
//   Routing & traversals Bellman-Ford, Floyd-Warshall, BFS, spanning tree,
//                        diameter estimation
//   Graph theory         vertex coloring, triangle count
//   Communities          weakly connected components, community detection
//   Temporal analyses    trend analyses, online sampling (online rank)
//
// For each computation this bench reports the wall time on a
// Barabasi-Albert graph snapshot plus a characteristic output value, so a
// platform evaluation can pick computations with known baseline behavior.
#include <chrono>
#include <cstdio>

#include "common/flags.h"
#include "common/parallel.h"

#include "algorithms/coloring.h"
#include "algorithms/communities.h"
#include "algorithms/kmeans.h"
#include "algorithms/components.h"
#include "algorithms/cycles.h"
#include "algorithms/online_pagerank.h"
#include "algorithms/pagerank.h"
#include "algorithms/shortest_paths.h"
#include "algorithms/statistics.h"
#include "algorithms/traversal.h"
#include "algorithms/triangles.h"
#include "analysis/trend.h"
#include "generator/bootstrap.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "harness/report.h"

using namespace graphtides;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  size_t threads = 0;  // 0 = hardware concurrency
  FlagTable flags("table1_computations");
  flags.Add("threads", &threads);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  threads = ResolveThreads(threads);

  std::printf("%s", SectionHeader(
      "Table 1 — example computations for stream-based graph systems").c_str());

  // Build the input graph from a bootstrap stream (BA, 50k vertices).
  TopologyIndex topology;
  Rng rng(7);
  GeneratorContext ctx(&topology, &rng);
  std::vector<Event> events;
  GraphBuilder builder(&topology, &ctx, &events);
  BarabasiAlbertParams params{50000, 100, 5};
  if (Status st = BootstrapBarabasiAlbert(builder, ctx, params); !st.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Graph graph;
  if (Status st = graph.ApplyAll(events); !st.ok()) {
    std::fprintf(stderr, "apply failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const CsrGraph csr = CsrGraph::FromGraph(graph, threads);
  std::printf("input: BarabasiAlbert(n=%zu, m0=%zu, M=%zu) -> %zu vertices, "
              "%zu edges (compute threads: %zu)\n\n",
              params.n, params.m0, params.m, csr.num_vertices(),
              csr.num_edges(), threads);

  TextTable table({"category", "computation", "time [ms]", "result"});
  auto add = [&](const char* category, const char* name, double ms,
                 const std::string& result) {
    table.AddRow({category, name, TextTable::FormatDouble(ms, 2), result});
  };

  {
    auto t = std::chrono::steady_clock::now();
    const GraphStatistics s = ComputeGraphStatistics(csr, threads);
    add("Graph statistics", "global properties", MillisSince(t),
        "mean out-deg " + TextTable::FormatDouble(s.mean_out_degree, 2) +
            ", gini " + TextTable::FormatDouble(s.out_degree_gini, 2));
  }
  {
    auto t = std::chrono::steady_clock::now();
    const auto dist = OutDegreeDistribution(csr);
    add("Graph statistics", "degree distribution", MillisSince(t),
        std::to_string(dist.size()) + " distinct degrees");
  }
  {
    auto t = std::chrono::steady_clock::now();
    const PageRankResult pr = PageRank(csr, {.threads = threads});
    add("Graph properties", "PageRank", MillisSince(t),
        std::to_string(pr.iterations) + " iterations, top rank " +
            TextTable::FormatDouble(pr.ranks[TopKByRank(pr.ranks, 1)[0]], 5));
  }
  {
    auto t = std::chrono::steady_clock::now();
    const bool cyclic = HasCycle(csr);
    add("Graph properties", "cycle detection", MillisSince(t),
        cyclic ? "cyclic" : "acyclic");
  }
  {
    auto t = std::chrono::steady_clock::now();
    const BellmanFordResult bf = BellmanFord(csr, 0, UnitWeights());
    size_t reached = 0;
    for (double d : bf.distance) {
      if (d != kInfiniteDistance) ++reached;
    }
    add("Routing & traversals", "Bellman-Ford", MillisSince(t),
        std::to_string(reached) + " reachable, " +
            std::to_string(bf.relaxation_rounds) + " rounds");
  }
  {
    // Floyd-Warshall on a 512-vertex subgraph (O(n^3)).
    TopologyIndex small_topo;
    Rng small_rng(9);
    GeneratorContext small_ctx(&small_topo, &small_rng);
    std::vector<Event> small_events;
    GraphBuilder small_builder(&small_topo, &small_ctx, &small_events);
    (void)BootstrapBarabasiAlbert(small_builder, small_ctx, {512, 10, 4});
    Graph small_graph;
    (void)small_graph.ApplyAll(small_events);
    const CsrGraph small = CsrGraph::FromGraph(small_graph);
    auto t = std::chrono::steady_clock::now();
    auto fw = FloydWarshall(small, UnitWeights());
    add("Routing & traversals", "Floyd-Warshall (n=512)", MillisSince(t),
        fw.ok() ? "all-pairs matrix computed" : fw.status().ToString());
  }
  {
    auto t = std::chrono::steady_clock::now();
    const auto dist = BfsDistancesUndirected(csr, 0);
    uint32_t ecc = 0;
    for (uint32_t d : dist) {
      if (d != kUnreachable) ecc = std::max(ecc, d);
    }
    add("Routing & traversals", "breadth-first search", MillisSince(t),
        "eccentricity(v0) = " + std::to_string(ecc));
  }
  {
    auto t = std::chrono::steady_clock::now();
    const SpanningTree tree = BfsSpanningTree(csr, 0);
    add("Routing & traversals", "spanning tree construction", MillisSince(t),
        std::to_string(tree.reached) + " vertices spanned");
  }
  {
    auto t = std::chrono::steady_clock::now();
    Rng diameter_rng(5);
    const size_t diameter = EstimateDiameter(csr, 4, diameter_rng);
    add("Routing & traversals", "diameter estimation", MillisSince(t),
        "diameter >= " + std::to_string(diameter));
  }
  {
    auto t = std::chrono::steady_clock::now();
    const ColoringResult coloring = GreedyColoring(csr);
    add("Graph theory", "vertex coloring", MillisSince(t),
        std::to_string(coloring.num_colors) + " colors (" +
            (IsProperColoring(csr, coloring.color) ? "proper" : "IMPROPER") +
            ")");
  }
  {
    auto t = std::chrono::steady_clock::now();
    const uint64_t triangles = CountTriangles(csr, threads);
    add("Graph theory", "triangle count", MillisSince(t),
        std::to_string(triangles) + " triangles");
  }
  {
    auto t = std::chrono::steady_clock::now();
    const ComponentsResult wcc =
        WeaklyConnectedComponents(csr, {.threads = threads});
    add("Communities", "weakly connected components", MillisSince(t),
        std::to_string(wcc.num_components) + " components, largest " +
            std::to_string(wcc.LargestSize()));
  }
  {
    auto t = std::chrono::steady_clock::now();
    Rng lp_rng(11);
    const CommunityResult lp = LabelPropagation(csr, lp_rng);
    add("Communities", "community detection (LPA)", MillisSince(t),
        std::to_string(lp.num_communities) + " communities in " +
            std::to_string(lp.rounds) + " rounds");
  }
  {
    auto t = std::chrono::steady_clock::now();
    const auto cores = CoreNumbers(csr);
    uint32_t kmax = 0;
    for (uint32_t c : cores) kmax = std::max(kmax, c);
    add("Communities", "k-core decomposition", MillisSince(t),
        "max core " + std::to_string(kmax));
  }
  {
    auto t = std::chrono::steady_clock::now();
    Rng km_rng(13);
    const auto features = VertexStructuralFeatures(csr);
    auto km = KMeans(features, 4, km_rng);
    add("Communities", "k-means (structural features)", MillisSince(t),
        km.ok() ? std::to_string(km->iterations) + " iterations, inertia " +
                      TextTable::FormatDouble(km->inertia, 1)
                : km.status().ToString());
  }
  {
    // Temporal analyses: trend detection over a timestamped event prefix.
    auto t = std::chrono::steady_clock::now();
    TrendDetector trends;
    Timestamp now;
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      now = Timestamp::FromSeconds(static_cast<double>(i) / 2000.0);
      if (e.type == EventType::kAddEdge) trends.Observe(e.edge.dst, now);
    }
    const auto trending = trends.TrendingAt(now);
    add("Temporal analyses", "trend analysis", MillisSince(t),
        std::to_string(trending.size()) + " trending vertices");
  }
  {
    // Temporal analyses: online (converging) rank over the event stream.
    auto t = std::chrono::steady_clock::now();
    OnlinePageRank online;
    for (const Event& e : events) {
      online.OnEventApplied(e);
      online.ProcessPending(16);
    }
    while (online.HasPendingWork()) online.ProcessPending(100000);
    const PageRankResult exact = PageRank(csr, {.threads = threads});
    std::vector<double> approx(csr.num_vertices());
    for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
      approx[v] = online.RankOf(csr.IdOf(v));
    }
    add("Temporal analyses", "online rank (converging)", MillisSince(t),
        "median rel. error " +
            TextTable::FormatDouble(MedianRelativeError(approx, exact.ranks),
                                    4));
  }

  std::printf("%s", table.ToString().c_str());
  return 0;
}
