// Flat adjacency list shared by the graph stores: Graph (neighbors are
// vertex slots) and the generator's TopologyIndex (neighbors are vertex
// ids). This is the layout streaming graph stores use (GraphTango): a plain
// per-vertex array, plus a PositionIndex only on high-degree vertices.
#ifndef GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_
#define GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/position_index.h"

namespace graphtides {

/// Adjacency lists above this length maintain a neighbor→position index.
inline constexpr size_t kAdjIndexThreshold = 32;

/// \brief Neighbor list with swap-remove and a lazily built position index
/// for long (hub) lists.
///
/// Short lists — the overwhelming majority under power-law degree
/// distributions — are scanned linearly, back to front. A list that grows
/// past kAdjIndexThreshold builds a neighbor→position index and keeps
/// it for the rest of its life, so lookup and removal stay O(1) on hubs.
/// The index sits behind a pointer: a non-hub list costs one vector and one
/// null pointer. Entry order depends only on the sequence of Add/Remove
/// calls (append; removal moves the last entry into the hole), never on the
/// index, so it is deterministic.
template <typename T>
class FlatAdjList {
 public:
  static constexpr size_t kNotFound = SIZE_MAX;

  FlatAdjList() = default;
  FlatAdjList(const FlatAdjList& other)
      : items_(other.items_),
        index_(other.index_ ? std::make_unique<Index>(*other.index_)
                            : nullptr) {}
  FlatAdjList& operator=(const FlatAdjList& other) {
    if (this != &other) *this = FlatAdjList(other);
    return *this;
  }
  FlatAdjList(FlatAdjList&&) noexcept = default;
  FlatAdjList& operator=(FlatAdjList&&) noexcept = default;

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const T& operator[](size_t pos) const { return items_[pos]; }
  const T& back() const { return items_.back(); }
  typename std::vector<T>::const_iterator begin() const {
    return items_.begin();
  }
  typename std::vector<T>::const_iterator end() const { return items_.end(); }

  /// Position of `v`, or kNotFound.
  size_t Find(T v) const {
    if (index_) {
      const uint32_t pos = index_->Find(v, ItemAt());
      return pos == Index::kNotFound ? kNotFound : pos;
    }
    // Backward scan: cascades drain lists from the back, so the hit is
    // usually the first probe.
    for (size_t i = items_.size(); i-- > 0;) {
      if (items_[i] == v) return i;
    }
    return kNotFound;
  }

  /// Appends `v`; the caller guarantees it is not in the list yet.
  void Add(T v) {
    items_.push_back(v);
    if (index_) {
      index_->Insert(v, items_.size() - 1, ItemAt());
    } else if (items_.size() > kAdjIndexThreshold) {
      index_ = std::make_unique<Index>();
      index_->Reserve(items_.size());
      for (size_t i = 0; i < items_.size(); ++i) {
        index_->Insert(items_[i], i, ItemAt());
      }
    }
  }

  /// Removes the entry at `pos` by moving the last entry into its place.
  void RemoveAt(size_t pos) {
    const size_t last_pos = items_.size() - 1;
    if (index_) {
      index_->Erase(items_[pos], pos);
      if (pos != last_pos) index_->Move(items_[last_pos], last_pos, pos);
    }
    items_[pos] = items_[last_pos];
    items_.pop_back();
  }

  /// Removes `v` if it is in the list.
  void Remove(T v) {
    const size_t pos = Find(v);
    if (pos != kNotFound) RemoveAt(pos);
  }

 private:
  using Index = PositionIndex<T>;

  auto ItemAt() const {
    return [this](uint32_t pos) { return items_[pos]; };
  }

  std::vector<T> items_;
  std::unique_ptr<Index> index_;  // set iff the list ever outgrew the threshold
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_
