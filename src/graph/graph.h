// In-memory directed property graph per the paper's graph model (§3.2 Graph
// Types): directed, stateful vertices and edges, unique numeric vertex IDs,
// no multigraphs, no self-loops. Undirected graphs are modeled by ignoring
// direction; stateless graphs by ignoring the state strings.
//
// This is the reference graph representation used by the stream validator's
// semantics, by the batch algorithms (ground truth), and by the simulated
// systems under test.
#ifndef GRAPHTIDES_GRAPH_GRAPH_H_
#define GRAPHTIDES_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/flat_adjacency.h"
#include "graph/position_index.h"
#include "stream/event.h"

namespace graphtides {

/// \brief Mutable directed graph with string state on vertices and edges.
///
/// All mutating operations enforce the stream preconditions and return
/// PreconditionFailed without modifying the graph when violated; a stream
/// that passes StreamValidator applies cleanly.
///
/// Storage is slot-indexed: a PositionIndex (graph/position_index.h) takes
/// each vertex id to a stable slot, reading the id back from the slot, and
/// each slot holds the vertex state plus flat adjacency lists of neighbor
/// slots (FlatAdjList). Removed slots are reused, most recently freed
/// first. Iteration (VertexIds, ForEach*) runs in slot order, which
/// depends only on the sequence of applied operations — deterministic, but
/// neither sorted nor insertion order once vertices are removed.
class Graph {
 public:
  Graph() = default;

  // --- Mutation ---------------------------------------------------------

  Status AddVertex(VertexId id, std::string state = "");
  /// Removes the vertex and all incident edges.
  Status RemoveVertex(VertexId id);
  Status UpdateVertexState(VertexId id, std::string state);
  Status AddEdge(VertexId src, VertexId dst, std::string state = "");
  Status RemoveEdge(VertexId src, VertexId dst);
  Status UpdateEdgeState(VertexId src, VertexId dst, std::string state);

  /// Applies one stream event. Marker and control events are no-ops.
  Status Apply(const Event& event);

  /// Applies a whole stream; stops at (and returns) the first failure,
  /// annotated with the 0-based event index.
  Status ApplyAll(const std::vector<Event>& events);

  void Clear();

  // --- Inspection -------------------------------------------------------

  size_t num_vertices() const { return slot_of_.size(); }
  size_t num_edges() const { return num_edges_; }

  bool HasVertex(VertexId id) const { return Find(id) != nullptr; }
  bool HasEdge(VertexId src, VertexId dst) const;

  Result<std::string> GetVertexState(VertexId id) const;
  Result<std::string> GetEdgeState(VertexId src, VertexId dst) const;

  /// Out-/in-degree; NotFound if the vertex does not exist.
  Result<size_t> OutDegree(VertexId id) const;
  Result<size_t> InDegree(VertexId id) const;
  /// OutDegree + InDegree.
  Result<size_t> Degree(VertexId id) const;

  /// Snapshot of all vertex IDs, in slot order.
  std::vector<VertexId> VertexIds() const;

  /// Invokes `fn(id, state)` for every vertex.
  void ForEachVertex(
      const std::function<void(VertexId, const std::string&)>& fn) const;

  /// Invokes `fn(dst, state)` for every out-edge of `src`. No-op if `src`
  /// does not exist.
  void ForEachOutEdge(
      VertexId src,
      const std::function<void(VertexId, const std::string&)>& fn) const;

  /// Invokes `fn(src)` for every in-edge of `dst`. No-op if `dst` does not
  /// exist.
  void ForEachInEdge(VertexId dst,
                     const std::function<void(VertexId)>& fn) const;

  /// Invokes `fn(src, dst, state)` for every edge in the graph.
  void ForEachEdge(const std::function<void(VertexId, VertexId,
                                            const std::string&)>& fn) const;

  /// Deep copy (snapshot for offline computations, §4.4.2).
  Graph Clone() const { return *this; }

 private:
  using Slot = uint32_t;

  struct VertexRecord {
    VertexId id = 0;
    std::string state;
    // Out-adjacency carries the edge states in a parallel vector;
    // in-adjacency is slot-only.
    FlatAdjList<Slot> out;
    std::vector<std::string> out_state;
    FlatAdjList<Slot> in;
    bool live = false;  // false for a slot on the free list
  };

  static constexpr size_t kNoEdge = FlatAdjList<Slot>::kNotFound;
  static constexpr Slot kNoSlot = PositionIndex<VertexId>::kNotFound;

  /// Key accessor of slot_of_.
  auto IdAt() const {
    return [this](Slot slot) { return slots_[slot].id; };
  }
  /// Slot of a live vertex, or kNoSlot.
  Slot SlotOf(VertexId id) const { return slot_of_.Find(id, IdAt()); }

  /// Record of a live vertex, or nullptr.
  const VertexRecord* Find(VertexId id) const;
  /// Position of the edge in the out-list of `src`, whose slot goes to
  /// `*src_slot`; kNoEdge if the edge does not exist.
  size_t FindEdge(VertexId src, VertexId dst, Slot* src_slot) const;
  /// Drops the out-edge at `pos` of `record` together with its state.
  static void RemoveOutAt(VertexRecord& record, size_t pos);

  // CsrGraph::FromGraph reads the slots directly: the snapshot build maps
  // every neighbor slot to its dense index through a plain array.
  friend class CsrGraph;

  PositionIndex<VertexId> slot_of_;
  std::vector<VertexRecord> slots_;
  std::vector<Slot> free_slots_;
  size_t num_edges_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GRAPH_GRAPH_H_
