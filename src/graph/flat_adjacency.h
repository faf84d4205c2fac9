// Flat adjacency list shared by the graph stores: Graph (neighbors are
// vertex slots) and the generator's TopologyIndex (neighbors are vertex
// ids). This is the layout streaming graph stores use (GraphTango): a plain
// per-vertex array, plus a hash index only on high-degree vertices.
#ifndef GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_
#define GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace graphtides {

/// Adjacency lists above this length maintain a neighbor→position index.
inline constexpr size_t kAdjIndexThreshold = 32;

/// \brief Neighbor list with swap-remove and a lazily built position index
/// for long (hub) lists.
///
/// Short lists — the overwhelming majority under power-law degree
/// distributions — are scanned linearly, back to front. A list that grows
/// past kAdjIndexThreshold builds a neighbor→position hash index and keeps
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
      auto it = index_->find(v);
      return it == index_->end() ? kNotFound : it->second;
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
      index_->emplace(v, static_cast<uint32_t>(items_.size() - 1));
    } else if (items_.size() > kAdjIndexThreshold) {
      index_ = std::make_unique<Index>();
      index_->reserve(items_.size() * 2);
      for (size_t i = 0; i < items_.size(); ++i) {
        index_->emplace(items_[i], static_cast<uint32_t>(i));
      }
    }
  }

  /// Removes the entry at `pos` by moving the last entry into its place.
  void RemoveAt(size_t pos) {
    const T removed = items_[pos];
    const T last = items_.back();
    items_[pos] = last;
    items_.pop_back();
    if (index_) {
      (*index_)[last] = static_cast<uint32_t>(pos);
      index_->erase(removed);
    }
  }

  /// Removes `v` if it is in the list.
  void Remove(T v) {
    const size_t pos = Find(v);
    if (pos != kNotFound) RemoveAt(pos);
  }

 private:
  using Index = std::unordered_map<T, uint32_t>;

  std::vector<T> items_;
  std::unique_ptr<Index> index_;  // set iff the list ever outgrew the threshold
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GRAPH_FLAT_ADJACENCY_H_
