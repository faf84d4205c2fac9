// Online (converging) PageRank-style influence rank over an evolving graph
// (§4.4.2 "Converging computations (e.g., online PageRank variants)").
//
// Algorithm: residual push with *invariant-preserving* corrections on
// topology changes (in the style of Ohsaka et al., "Efficient PageRank
// Tracking in Evolving Networks", KDD'15). The core maintains, per tracked
// vertex, a score x(v) and a signed residual r(v) with the invariant
//
//     r = b - (I - d * W^T) x
//
// where b is the teleport injection (one unit per live vertex), d the
// damping factor, and W the out-edge transition matrix (dangling columns
// are sinks; normalization at query time makes this the "renormalized
// sink" PageRank formulation). A push at v moves r(v) into x(v) and
// forwards d * r(v) split across v's current out-neighbors. When an edge
// at u is inserted or removed, residuals of u's (old and new) neighbors
// are adjusted by the exact difference d * x(u) * (W' - W) e_u, so the
// invariant — and therefore convergence to the rank of the *current*
// graph — is preserved. The remaining residual mass at any instant is
// exactly the staleness the framework's accuracy metrics quantify.
//
// OnlinePageRankCore is partition-friendly: it owns only local vertices
// (those with v % parts == part, and their out-adjacency) and emits signed
// residual deltas for non-local targets through a callback. The chronolite
// SUT runs one core per worker and routes deltas as messages;
// OnlinePageRank wraps a single core with direct local routing.
#ifndef GRAPHTIDES_ALGORITHMS_ONLINE_PAGERANK_H_
#define GRAPHTIDES_ALGORITHMS_ONLINE_PAGERANK_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "graph/position_index.h"
#include "stream/event.h"

namespace graphtides {

struct OnlinePageRankOptions {
  double damping = 0.85;
  /// Residuals with |r| below this threshold stay parked (no push).
  ///
  /// Unit: one vertex's teleport injection (every vertex injects exactly
  /// 1.0). Converged scores average 1/(1-d) ~ 6.7 per vertex, so a
  /// threshold of 0.01 parks residuals below ~0.15% of the mean score.
  /// Worst-case total pushes scale as n / ((1 - d) * threshold): for
  /// large graphs prefer 0.01-0.05; very small thresholds are only
  /// affordable on small graphs.
  double push_threshold = 1e-4;
};

/// \brief Partitionable dynamic-PageRank state.
///
/// Vertex state lives in slots of one array behind a PositionIndex from id
/// to slot (graph/position_index.h); freed slots are reused LIFO. The push
/// queue holds vertex ids, so an entry queued before its vertex was removed
/// (and possibly re-added) resolves through the same lookup as any other
/// access.
class OnlinePageRankCore {
 public:
  /// A core for partition `part` of `parts` (parts > 0): it owns the
  /// vertices v with v % parts == part.
  OnlinePageRankCore(OnlinePageRankOptions options, size_t parts,
                     size_t part);

  // --- Topology notifications (all vertices below are local) -------------

  /// A new local vertex: injects one unit of teleport mass.
  void AddVertex(VertexId v);

  /// Removes a local vertex with exact residual corrections for its
  /// out-neighbors. `in_neighbors` (local vertices with an edge into v)
  /// enables the exact correction for their renormalized distributions;
  /// pass an empty list when unknown (distributed workers) — the resulting
  /// stale contribution is part of the measured approximation error.
  void RemoveVertex(VertexId v, const std::vector<VertexId>& in_neighbors);

  /// Edge u -> w inserted (u local; w may be remote).
  void AddEdge(VertexId u, VertexId w);
  /// Edge u -> w removed (u local; w may be remote).
  void RemoveEdge(VertexId u, VertexId w);

  /// Adds a signed residual delivered from another worker to a vertex that
  /// is present — added by AddVertex and not removed since; otherwise the
  /// delta (a push to a removed vertex over a stale edge) is dropped.
  void AddResidualIfPresent(VertexId v, double amount);

  // --- Computation --------------------------------------------------------

  /// Executes up to `max_pushes` pushes; returns how many ran. Remote
  /// residual deltas go to `emit_remote(VertexId target, double delta)`:
  /// first those buffered by topology notifications, then the pushes' own,
  /// in push order. The emitter is a template parameter so that the
  /// per-target call inlines into the push loop.
  template <typename EmitRemote>
  size_t ProcessPushes(size_t max_pushes, EmitRemote&& emit_remote);

  bool HasPendingWork() const { return !queue_.empty(); }

  // --- Results ------------------------------------------------------------

  /// Unnormalized score of a local vertex (0 if unknown).
  double EstimateOf(VertexId v) const;
  /// Sum of local scores (for cross-partition normalization).
  double EstimateMass() const { return estimate_mass_; }
  /// Snapshot of (vertex, unnormalized score) pairs, in slot order.
  std::vector<std::pair<VertexId, double>> Estimates() const;

  size_t num_tracked() const { return slot_of_.size(); }
  /// Current out-degree of a local vertex (adjacency mirror).
  size_t OutDegreeOf(VertexId v) const;
  /// Current out-neighbors of a local vertex (empty if unknown).
  std::vector<VertexId> OutNeighborsOf(VertexId v) const;

 private:
  static constexpr uint32_t kNoSlot = PositionIndex<VertexId>::kNotFound;

  struct Slot {
    VertexId id = 0;
    bool used = false;     // holds a tracked vertex
    bool present = false;  // added by AddVertex, not removed since
    bool queued = false;
    double score = 0.0;
    double residual = 0.0;
    std::vector<VertexId> out;
  };

  bool IsLocal(VertexId v) const { return v % parts_ == part_; }
  /// Key accessor of slot_of_.
  auto IdAt() const {
    return [this](uint32_t s) { return slots_[s].id; };
  }
  /// Slot of `v`, or kNoSlot.
  uint32_t Find(VertexId v) const { return slot_of_.Find(v, IdAt()); }
  /// Slot of `v`, created with zero score and residual when missing. May
  /// grow slots_, which invalidates references into it.
  uint32_t FindOrAdd(VertexId v);
  void MaybeEnqueue(Slot& slot);
  /// Adds a signed residual delta to a local vertex, creating its slot.
  void AddLocalResidual(VertexId v, double delta);
  /// Applies a delta produced by a topology notification: local targets
  /// directly, remote ones buffered until the next ProcessPushes.
  void AdjustBuffered(VertexId target, double delta);

  OnlinePageRankOptions options_;
  uint64_t parts_;
  uint64_t part_;
  PositionIndex<VertexId> slot_of_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::deque<VertexId> queue_;
  double estimate_mass_ = 0.0;
  /// Remote deltas produced by topology notifications, flushed by
  /// ProcessPushes.
  std::vector<std::pair<VertexId, double>> pending_remote_;
};

template <typename EmitRemote>
size_t OnlinePageRankCore::ProcessPushes(size_t max_pushes,
                                         EmitRemote&& emit_remote) {
  for (const auto& [target, delta] : pending_remote_) {
    emit_remote(target, delta);
  }
  pending_remote_.clear();

  size_t executed = 0;
  while (executed < max_pushes && !queue_.empty()) {
    const VertexId v = queue_.front();
    queue_.pop_front();
    const uint32_t s = Find(v);
    if (s == kNoSlot) continue;  // removed while queued
    Slot& slot = slots_[s];
    slot.queued = false;
    if (std::abs(slot.residual) <= options_.push_threshold) continue;

    const double r = slot.residual;
    slot.residual = 0.0;
    slot.score += r;
    estimate_mass_ += r;

    // Dangling vertices forward nothing (sink semantics; normalization at
    // query time yields the renormalized-sink PageRank).
    const size_t degree = slot.out.size();
    const double share =
        degree == 0 ? 0.0
                    : options_.damping * r / static_cast<double>(degree);
    if (share != 0.0) {
      // A local target may get a new slot and move slots_, so slot s is
      // re-read per target; no adjustment touches an out-list.
      for (size_t i = 0; i < degree; ++i) {
        const VertexId w = slots_[s].out[i];
        if (IsLocal(w)) {
          AddLocalResidual(w, share);
        } else {
          emit_remote(w, share);
        }
      }
    }
    ++executed;
  }
  return executed;
}

/// \brief Single-process online PageRank over an event-defined graph.
///
/// Feed every applied event via OnEventApplied (after the corresponding
/// Graph::Apply succeeded), interleave ProcessPending with ingestion, and
/// query NormalizedRanks whenever an approximate result is needed. The
/// tracker keeps its own adjacency mirror, so vertex removals are handled
/// with exact corrections.
class OnlinePageRank {
 public:
  explicit OnlinePageRank(OnlinePageRankOptions options = {});

  /// Reacts to a successfully applied graph event.
  void OnEventApplied(const Event& event);

  /// Runs up to `max_pushes` pushes. Returns the number executed.
  size_t ProcessPending(size_t max_pushes);

  bool HasPendingWork() const { return core_.HasPendingWork(); }

  /// Normalized rank of one vertex (scores normalized to sum to 1).
  double RankOf(VertexId v) const;

  /// All normalized ranks.
  std::unordered_map<VertexId, double> NormalizedRanks() const;

 private:
  OnlinePageRankCore core_;
  /// In-adjacency mirror (out-adjacency lives in the core).
  std::unordered_map<VertexId, std::unordered_set<VertexId>> in_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_ALGORITHMS_ONLINE_PAGERANK_H_
