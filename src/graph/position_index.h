// Open-addressed index from a key to its position in a dense array that the
// caller owns: the id → position map of the graph stores (Graph,
// TopologyIndex, the online rank core) and of FlatAdjList's hub lists. This
// is the layout streaming graph stores use (GraphTango): a flat probe table
// beside the dense arrays, so a lookup is one multiply, one cache line of
// cells and one read of the caller's array, with no node allocation.
#ifndef GRAPHTIDES_GRAPH_POSITION_INDEX_H_
#define GRAPHTIDES_GRAPH_POSITION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "stream/event.h"

namespace graphtides {

/// Fibonacci hashing: the high 32 bits of the product with 2^64 / phi.
inline uint32_t FibonacciHash(uint64_t x) {
  return static_cast<uint32_t>((x * 0x9E3779B97F4A7C15ull) >> 32);
}

/// Hash of vertex and edge ids; an edge mixes both endpoints.
struct IdHash {
  uint32_t operator()(VertexId v) const { return FibonacciHash(v); }
  uint32_t operator()(const EdgeId& e) const {
    return FibonacciHash((e.src * 0x9E3779B97F4A7C15ull) ^ e.dst);
  }
};

/// \brief Maps each key to its position in a caller-owned dense array.
///
/// A cell is 8 bytes: the key's 32-bit hash and its 32-bit position. Keys
/// are not stored a second time: a probe compares hashes first, then the
/// full key through `key_at(pos)`, an accessor into the caller's array,
/// passed per call so that a copied index works against the copy's array.
/// Erase and Move name the cell by key and position, never read the
/// caller's array, and may run before or after it changes.
///
/// Linear probing over a power-of-two table, at most 3/4 full; deletion
/// shifts the rest of the probe run back, so there are no tombstones and
/// a table under churn never degrades. Nothing iterates the cells, so the
/// table layout never shows in the caller's output.
template <typename Key, typename Hash = IdHash>
class PositionIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;
  /// Largest position a cell holds; UINT32_MAX marks an empty cell.
  static constexpr size_t kMaxPosition = UINT32_MAX - 1;

  size_t size() const { return size_; }
  /// Cells allocated; Reserve(n) makes room for n keys without growing.
  size_t capacity() const { return cells_.size(); }

  /// Position of `key`, or kNotFound.
  template <typename KeyAt>
  uint32_t Find(const Key& key, const KeyAt& key_at) const {
    if (size_ == 0) return kNotFound;
    const uint32_t hash = Hash{}(key);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Cell cell = cells_[i];
      if (cell.pos == kEmpty) return kNotFound;
      if (cell.hash == hash && key_at(cell.pos) == key) return cell.pos;
    }
  }

  /// Maps `key` to `pos` unless `key` is present. Returns the key's
  /// position and whether it was inserted, like try_emplace. Throws
  /// std::length_error if `pos` exceeds kMaxPosition.
  template <typename KeyAt>
  std::pair<uint32_t, bool> Insert(const Key& key, size_t pos,
                                   const KeyAt& key_at) {
    if (pos > kMaxPosition) {
      throw std::length_error("PositionIndex: position exceeds 32 bits");
    }
    if (4 * (size_ + 1) > 3 * cells_.size()) {
      const uint32_t present = Find(key, key_at);
      if (present != kNotFound) return {present, false};
      Rehash(cells_.empty() ? kMinCapacity : 2 * cells_.size());
    }
    const uint32_t hash = Hash{}(key);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Cell& cell = cells_[i];
      if (cell.pos == kEmpty) {
        cell = Cell{hash, static_cast<uint32_t>(pos)};
        ++size_;
        return {cell.pos, true};
      }
      if (cell.hash == hash && key_at(cell.pos) == key) {
        return {cell.pos, false};
      }
    }
  }

  /// Removes `key`, which the index maps to `pos`; no-op otherwise.
  void Erase(const Key& key, size_t pos) {
    size_t hole = CellOf(key, pos);
    if (hole == kNoCell) return;
    // Backward shift: each later cell of the run moves into the hole
    // unless its home lies cyclically in (hole, j], where it must stay.
    for (size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      const Cell cell = cells_[j];
      if (cell.pos == kEmpty) break;
      if (((j - (cell.hash & mask_)) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cell;
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  /// Re-points `key` from position `from` to `to` (a swap-remove moved it);
  /// no-op if the index does not map `key` to `from`.
  void Move(const Key& key, size_t from, size_t to) {
    if (to > kMaxPosition) {
      throw std::length_error("PositionIndex: position exceeds 32 bits");
    }
    const size_t i = CellOf(key, from);
    if (i != kNoCell) cells_[i].pos = static_cast<uint32_t>(to);
  }

  /// Makes room for `n` keys in all.
  void Reserve(size_t n) {
    size_t capacity = cells_.empty() ? kMinCapacity : cells_.size();
    while (4 * n > 3 * capacity) capacity *= 2;
    if (capacity > cells_.size()) Rehash(capacity);
  }

  void Clear() { *this = PositionIndex(); }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kNoCell = SIZE_MAX;

  struct Cell {
    uint32_t hash = 0;
    uint32_t pos = kEmpty;
  };

  /// Cell holding (`key`, `pos`), or kNoCell.
  size_t CellOf(const Key& key, size_t pos) const {
    if (size_ == 0) return kNoCell;
    const uint32_t hash = Hash{}(key);
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Cell cell = cells_[i];
      if (cell.pos == kEmpty) return kNoCell;
      if (cell.pos == pos && cell.hash == hash) return i;
    }
  }

  /// Moves every cell into a table of `capacity` cells (a power of two);
  /// placement needs only the stored hash.
  void Rehash(size_t capacity) {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(capacity, Cell{});
    mask_ = capacity - 1;
    for (const Cell& cell : old) {
      if (cell.pos == kEmpty) continue;
      size_t i = cell.hash & mask_;
      while (cells_[i].pos != kEmpty) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GRAPH_POSITION_INDEX_H_
