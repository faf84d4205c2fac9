// Topology shadow maintained by the stream generator. Supports O(1)
// mutation plus the selection primitives generator models need:
// uniform-random vertices/edges, preferential (degree-proportional)
// selection, and degree-biased selection with positive or negative bias —
// the "Zipf (based on degree)" selection functions of Table 3.
#ifndef GRAPHTIDES_GENERATOR_TOPOLOGY_INDEX_H_
#define GRAPHTIDES_GENERATOR_TOPOLOGY_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/flat_adjacency.h"
#include "graph/position_index.h"
#include "stream/event.h"

namespace graphtides {

/// \brief Mutable topology with sampling support (no states, generator-side).
///
/// Storage is fully swap-remove based: dense vertex/edge vectors for O(1)
/// uniform sampling, each with a PositionIndex from id to position (see
/// graph/position_index.h), and per-vertex FlatAdjList neighbor lists
/// (shared with Graph, see graph/flat_adjacency.h) instead of hash sets.
class TopologyIndex {
 public:
  // --- Mutation (preconditions identical to Graph) ----------------------

  Status AddVertex(VertexId id);
  /// Removes the vertex and incident edges (no neighbor-set copies: the
  /// cascade drains the adjacency vectors in place, back to front).
  Status RemoveVertex(VertexId id);
  Status AddEdge(VertexId src, VertexId dst);
  Status RemoveEdge(VertexId src, VertexId dst);

  // --- Inspection --------------------------------------------------------

  size_t num_vertices() const { return vertices_.size(); }
  size_t num_edges() const { return edges_.size(); }
  bool HasVertex(VertexId id) const;
  bool HasEdge(VertexId src, VertexId dst) const;
  /// Undirected degree (out + in); 0 for unknown vertices.
  size_t DegreeOf(VertexId id) const;
  size_t OutDegreeOf(VertexId id) const;

  // --- Sampling ----------------------------------------------------------

  /// Uniform-random existing vertex; nullopt when empty.
  std::optional<VertexId> UniformVertex(Rng& rng) const;

  /// Uniform-random existing edge; nullopt when empty.
  std::optional<EdgeId> UniformEdge(Rng& rng) const;

  /// Degree-proportional ("preferential attachment") vertex: a uniform edge
  /// endpoint, falling back to a uniform vertex when there are no edges.
  std::optional<VertexId> PreferentialVertex(Rng& rng) const;

  /// \brief Degree-biased vertex via weighted choice over a uniform
  /// candidate set of size `candidates` (capped at 64).
  ///
  /// Weight of a candidate with degree d is (d + 1)^bias: bias > 0 favors
  /// strongly connected vertices, bias < 0 favors weakly connected ones
  /// (Table 3: removals biased toward less connected, edge targets toward
  /// strongly connected), bias = 0 is uniform.
  std::optional<VertexId> DegreeBiasedVertex(Rng& rng, double bias,
                                             size_t candidates = 16) const;

  /// A uniform vertex distinct from `other` (nullopt if none exists).
  std::optional<VertexId> UniformVertexOtherThan(Rng& rng,
                                                 VertexId other) const;

  /// All vertex ids (dense storage order; mutates across removals).
  const std::vector<VertexId>& vertex_ids() const { return vertices_; }

 private:
  struct VertexAdj {
    FlatAdjList<VertexId> out;
    FlatAdjList<VertexId> in;
  };

  static constexpr uint32_t kNoPos = PositionIndex<VertexId>::kNotFound;

  // Key accessors of the two position indexes.
  auto VertexAt() const {
    return [this](uint32_t pos) { return vertices_[pos]; };
  }
  auto EdgeAt() const {
    return [this](uint32_t pos) { return edges_[pos]; };
  }

  // Swap-remove vectors give O(1) uniform sampling under churn. adj_ is
  // parallel to vertices_ (same slot per vertex).
  std::vector<VertexId> vertices_;
  PositionIndex<VertexId> vertex_pos_;
  std::vector<VertexAdj> adj_;
  std::vector<EdgeId> edges_;
  PositionIndex<EdgeId> edge_pos_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GENERATOR_TOPOLOGY_INDEX_H_
