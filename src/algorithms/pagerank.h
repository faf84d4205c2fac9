// Batch PageRank by power iteration (Table 1: "Graph properties").
//
// This is the exact-result baseline the harness uses to score the accuracy
// of online rank approximations (§4.3 Computation Metrics: "Exact results
// ... need to be prespecified (i.e., by reconstructing the target graph and
// running a separate batch computation as reference)").
#ifndef GRAPHTIDES_ALGORITHMS_PAGERANK_H_
#define GRAPHTIDES_ALGORITHMS_PAGERANK_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "graph/csr.h"
#include "stream/event.h"

namespace graphtides {

struct PageRankOptions {
  double damping = 0.85;
  size_t max_iterations = 100;
  /// Convergence threshold on the L1 norm of the rank delta.
  double tolerance = 1e-9;
  /// Worker threads (0 = auto, 1 = run inline). The iteration is
  /// pull-based — every vertex sums its in-neighbor contributions in
  /// sorted order — and the global reductions fold fixed chunk partials
  /// in chunk order, so ranks are bit-identical at every thread count.
  size_t threads = 0;
};

struct PageRankResult {
  /// Rank per dense vertex index; sums to 1 (dangling mass redistributed).
  std::vector<double> ranks;
  size_t iterations = 0;
  bool converged = false;
};

/// Runs power iteration until convergence or `max_iterations`.
PageRankResult PageRank(const CsrGraph& graph,
                        const PageRankOptions& options = {});

/// \brief Dense indices of the k highest-ranked vertices, descending; ties
/// broken by ascending index for determinism.
std::vector<CsrGraph::Index> TopKByRank(const std::vector<double>& ranks,
                                        size_t k);

/// \brief Median (over vertices) relative error |approx - exact| / exact.
/// Vertices whose exact rank is 0 are skipped. Vector sizes must match.
double MedianRelativeError(const std::vector<double>& approx,
                           const std::vector<double>& exact);

// --- Exact-rank reference (§4.3: "by reconstructing the target graph and
// running a separate batch computation") ------------------------------------

/// \brief The k vertices with the highest exact PageRank on the graph the
/// whole `stream` builds, descending (the "most influential users" whose
/// estimates a run tracks).
std::vector<VertexId> TopRankedVertices(const std::vector<Event>& stream,
                                        size_t k, size_t threads);

/// \brief A system's rank estimates for the tracked vertices at one instant.
struct RankEstimate {
  Timestamp time;
  /// Aligned with the tracked vertices.
  std::vector<double> ranks;
};

/// \brief Scores each estimate against exact PageRank on the graph
/// reconstructed from the graph events of `stream` delivered by its time
/// (`delivery_times[i]` is the delivery instant of the i-th graph event;
/// estimates must be in time order). Each value is the median relative
/// error over the tracked vertices with a positive exact rank, or nullopt
/// when no tracked vertex has one yet.
std::vector<std::optional<double>> RetrospectiveRankErrors(
    const std::vector<Event>& stream,
    const std::vector<Timestamp>& delivery_times,
    const std::vector<RankEstimate>& estimates,
    const std::vector<VertexId>& tracked, size_t threads);

}  // namespace graphtides

#endif  // GRAPHTIDES_ALGORITHMS_PAGERANK_H_
