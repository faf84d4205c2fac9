#include "algorithms/pagerank.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/parallel.h"
#include "common/stats.h"
#include "graph/graph.h"

namespace graphtides {

PageRankResult PageRank(const CsrGraph& graph, const PageRankOptions& options) {
  PageRankResult result;
  const size_t n = graph.num_vertices();
  if (n == 0) return result;
  const size_t threads = ResolveThreads(options.threads);
  const double inv_n = 1.0 / static_cast<double>(n);

  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  // contrib[u] = damping * rank[u] / out_deg(u): the per-edge share each
  // vertex offers, so the pull loop is a pure sum over in-neighbors.
  std::vector<double> contrib(n, 0.0);

  // Chunk layouts derive only from the graph, never from `threads`: the
  // reduction trees (dangling mass, delta) are identical at any thread
  // count, which is what makes the parallel ranks bit-deterministic.
  const auto vertex_chunks = UniformChunks(0, n, 4096);
  const auto pull_chunks = DegreeBalancedChunks(graph.in_offsets(), 8192);
  const auto plus = [](double a, double b) { return a + b; };

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Dangling vertices donate their rank uniformly.
    const double dangling_mass = ParallelReduceChunks(
        std::span(vertex_chunks), threads, 0.0,
        [&](size_t begin, size_t end) {
          double mass = 0.0;
          for (size_t v = begin; v < end; ++v) {
            const size_t out_deg =
                graph.OutDegree(static_cast<CsrGraph::Index>(v));
            if (out_deg == 0) {
              mass += rank[v];
              contrib[v] = 0.0;
            } else {
              contrib[v] =
                  options.damping * rank[v] / static_cast<double>(out_deg);
            }
          }
          return mass;
        },
        plus);
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling_mass * inv_n;

    // Pull phase: each vertex sums its sorted in-neighbor contributions —
    // per-vertex results are schedule-independent by construction.
    const double delta = ParallelReduceChunks(
        std::span(pull_chunks), threads, 0.0,
        [&](size_t begin, size_t end) {
          double chunk_delta = 0.0;
          for (size_t v = begin; v < end; ++v) {
            double sum = base;
            for (CsrGraph::Index u :
                 graph.InNeighbors(static_cast<CsrGraph::Index>(v))) {
              sum += contrib[u];
            }
            next[v] = sum;
            chunk_delta += std::abs(sum - rank[v]);
          }
          return chunk_delta;
        },
        plus);

    rank.swap(next);
    result.iterations = iter + 1;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.ranks = std::move(rank);
  return result;
}

std::vector<CsrGraph::Index> TopKByRank(const std::vector<double>& ranks,
                                        size_t k) {
  std::vector<CsrGraph::Index> order(ranks.size());
  std::iota(order.begin(), order.end(), 0);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](CsrGraph::Index a, CsrGraph::Index b) {
                      if (ranks[a] != ranks[b]) return ranks[a] > ranks[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

double MedianRelativeError(const std::vector<double>& approx,
                           const std::vector<double>& exact) {
  std::vector<double> errors;
  const size_t n = std::min(approx.size(), exact.size());
  errors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (exact[i] == 0.0) continue;
    errors.push_back(std::abs(approx[i] - exact[i]) / exact[i]);
  }
  return Median(std::move(errors));
}

std::vector<VertexId> TopRankedVertices(const std::vector<Event>& stream,
                                        size_t k, size_t threads) {
  Graph graph;
  for (const Event& e : stream) {
    (void)graph.Apply(e);  // faults are rejected here as in the SUTs
  }
  const CsrGraph csr = CsrGraph::FromGraph(graph, threads);
  const PageRankResult pr = PageRank(csr, {.threads = threads});
  std::vector<VertexId> top;
  for (CsrGraph::Index idx : TopKByRank(pr.ranks, k)) {
    top.push_back(csr.IdOf(idx));
  }
  return top;
}

std::vector<std::optional<double>> RetrospectiveRankErrors(
    const std::vector<Event>& stream,
    const std::vector<Timestamp>& delivery_times,
    const std::vector<RankEstimate>& estimates,
    const std::vector<VertexId>& tracked, size_t threads) {
  std::vector<const Event*> graph_events;
  graph_events.reserve(delivery_times.size());
  for (const Event& e : stream) {
    if (IsGraphOp(e.type)) graph_events.push_back(&e);
  }
  std::vector<std::optional<double>> errors_at;
  errors_at.reserve(estimates.size());
  Graph reconstructed;
  size_t cursor = 0;
  for (const RankEstimate& estimate : estimates) {
    while (cursor < graph_events.size() && cursor < delivery_times.size() &&
           delivery_times[cursor] <= estimate.time) {
      (void)reconstructed.Apply(*graph_events[cursor]);
      ++cursor;
    }
    std::optional<double>& error = errors_at.emplace_back();
    if (reconstructed.num_vertices() == 0) continue;
    const CsrGraph csr = CsrGraph::FromGraph(reconstructed, threads);
    const PageRankResult exact = PageRank(csr, {.threads = threads});
    std::vector<double> errors;
    for (size_t i = 0; i < tracked.size(); ++i) {
      CsrGraph::Index idx;
      if (!csr.IndexOf(tracked[i], &idx)) continue;
      const double exact_rank = exact.ranks[idx];
      if (exact_rank <= 0.0) continue;
      errors.push_back(std::abs(estimate.ranks[i] - exact_rank) / exact_rank);
    }
    if (!errors.empty()) error = Median(std::move(errors));
  }
  return errors_at;
}

}  // namespace graphtides
