// DeltaCombiner: per-target combining of signed residual deltas — Pregel's
// message combiner (Worker::setCombiner with a sum) for chronolite's
// outbound residual traffic.
#ifndef GRAPHTIDES_SUT_CHRONOLITE_DELTA_COMBINER_H_
#define GRAPHTIDES_SUT_CHRONOLITE_DELTA_COMBINER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/position_index.h"
#include "stream/event.h"

namespace graphtides {

/// \brief Insertion-ordered sum per target vertex, built to be reused.
///
/// Entries live in a dense (target, delta) vector in first-insertion
/// order; a repeated target adds its delta to the existing entry, so each
/// sum is taken in arrival order. An open-addressed index (linear probing,
/// power-of-two size, at most half full) maps targets to positions. Index
/// cells carry the epoch they were written in and Clear() just starts a
/// new epoch, so clearing is O(1) and keeps both allocations. Nothing here
/// depends on the standard library's hash. The index is not a PositionIndex
/// because of that epoch clear (see Clear()).
class DeltaCombiner {
 public:
  using Entry = std::pair<VertexId, double>;

  /// Adds `delta` to `target`'s entry, appending it on first sight.
  void Add(VertexId target, double delta) {
    if (2 * (entries_.size() + 1) > cells_.size()) Grow();
    const size_t mask = cells_.size() - 1;
    for (size_t i = FibonacciHash(target) & mask;; i = (i + 1) & mask) {
      Cell& cell = cells_[i];
      if (cell.epoch != epoch_) {
        cell = Cell{static_cast<uint32_t>(entries_.size()), epoch_};
        entries_.emplace_back(target, delta);
        return;
      }
      Entry& entry = entries_[cell.position];
      if (entry.first == target) {
        entry.second += delta;
        return;
      }
    }
  }

  /// Combined entries in first-insertion order.
  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Index cells allocated; never shrinks.
  size_t capacity() const { return cells_.size(); }

  /// Forgets every entry; allocations are kept for the next round. Runs once
  /// per push quantum, so it must stay O(1), not O(capacity).
  void Clear() {
    entries_.clear();
    if (++epoch_ == 0) {  // wrapped: stale cells could look current
      for (Cell& cell : cells_) cell.epoch = 0;
      epoch_ = 1;
    }
  }

 private:
  struct Cell {
    uint32_t position = 0;
    uint32_t epoch = 0;  // current iff equal to epoch_
  };

  /// Doubles the index (16 cells at first) and re-inserts every entry.
  void Grow() {
    cells_.assign(cells_.empty() ? 16 : 2 * cells_.size(), Cell{});
    epoch_ = 1;
    const size_t mask = cells_.size() - 1;
    for (size_t p = 0; p < entries_.size(); ++p) {
      size_t i = FibonacciHash(entries_[p].first) & mask;
      while (cells_[i].epoch == epoch_) i = (i + 1) & mask;
      cells_[i] = Cell{static_cast<uint32_t>(p), epoch_};
    }
  }

  std::vector<Entry> entries_;
  std::vector<Cell> cells_;
  uint32_t epoch_ = 1;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SUT_CHRONOLITE_DELTA_COMBINER_H_
