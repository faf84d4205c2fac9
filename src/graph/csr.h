// Compressed sparse row (CSR) snapshot of a Graph. Batch algorithms
// (the reference computations of Table 1 and the exact-result baselines of
// §4.3 "Computation Metrics") run on this immutable, cache-friendly view
// rather than on the mutable, slot-indexed Graph.
#ifndef GRAPHTIDES_GRAPH_CSR_H_
#define GRAPHTIDES_GRAPH_CSR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace graphtides {

/// \brief Immutable CSR snapshot with both out- and in-adjacency.
///
/// Vertices are re-indexed to dense [0, n) in ascending VertexId order;
/// IndexOf maps back by binary search over the sorted ids. Neighbor lists
/// are sorted by dense index, which makes intersections (triangle
/// counting) linear.
class CsrGraph {
 public:
  /// Index type for dense vertex numbering.
  using Index = uint32_t;

  /// Builds a snapshot of `graph`. Vertex IDs are assigned dense indices in
  /// ascending VertexId order (deterministic across runs). `threads`
  /// parallelizes the walk over the graph's slots and splits both
  /// transposes that sort the neighbor lists in two (0 = auto,
  /// 1 = sequential); the result is identical at every thread count.
  static CsrGraph FromGraph(const Graph& graph, size_t threads = 0);

  size_t num_vertices() const { return ids_.size(); }
  size_t num_edges() const { return out_targets_.size(); }

  /// Original VertexId for a dense index.
  VertexId IdOf(Index idx) const { return ids_[idx]; }
  /// Dense index for an original VertexId; false if not present.
  /// O(log n).
  bool IndexOf(VertexId id, Index* out) const;

  std::span<const Index> OutNeighbors(Index v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  std::span<const Index> InNeighbors(Index v) const {
    return {in_targets_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(Index v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  size_t InDegree(Index v) const { return in_offsets_[v + 1] - in_offsets_[v]; }

  /// All original vertex IDs in dense-index order.
  const std::vector<VertexId>& ids() const { return ids_; }

  /// CSR offset arrays (n + 1 entries) — the degree prefix sums the
  /// parallel kernels use for degree-balanced chunking.
  const std::vector<size_t>& out_offsets() const { return out_offsets_; }
  const std::vector<size_t>& in_offsets() const { return in_offsets_; }

 private:
  std::vector<VertexId> ids_;        // dense index -> id, ascending
  std::vector<size_t> out_offsets_;  // n+1 entries
  std::vector<Index> out_targets_;
  std::vector<size_t> in_offsets_;   // n+1 entries
  std::vector<Index> in_targets_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GRAPH_CSR_H_
