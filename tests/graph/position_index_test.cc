#include "graph/position_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "graph/flat_adjacency.h"
#include "graph/graph.h"

namespace graphtides {
namespace {

/// Every key hashes alike, so each probe needs the full-key compare, and
/// every key's home is the last cell, so each probe run wraps past the end
/// of the table and backward shifts cross it.
struct ConstantHash {
  uint32_t operator()(uint64_t) const { return UINT32_MAX; }
};

struct OracleHash {
  size_t operator()(uint64_t v) const { return std::hash<uint64_t>()(v); }
  size_t operator()(const EdgeId& e) const {
    return std::hash<uint64_t>()(e.src) * 31 + std::hash<uint64_t>()(e.dst);
  }
};

uint64_t MakeKey(uint64_t, uint64_t k) { return k; }
EdgeId MakeKey(EdgeId, uint64_t k) { return EdgeId{k / 64, k % 64}; }

/// Runs `ops` random inserts, finds and swap-removes on a dense key array
/// with a PositionIndex beside it, checking every answer against a
/// std::unordered_map. Phases alternate between growing and shrinking, so
/// the table grows while populated and drains back to empty.
template <typename Key, typename Hash>
void RunAgainstOracle(size_t ops, uint64_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys;
  PositionIndex<Key, Hash> index;
  std::unordered_map<Key, uint32_t, OracleHash> oracle;
  auto key_at = [&keys](uint32_t pos) { return keys[pos]; };
  auto random_key = [&] { return MakeKey(Key{}, rng.NextBounded(universe)); };
  size_t max_size = 0;
  bool drained = false;
  for (size_t op = 0; op < ops; ++op) {
    const bool growing = (op / (ops / 5)) % 2 == 0;
    const uint64_t kind = rng.NextBounded(100);
    if (kind < (growing ? 50u : 15u)) {
      const Key key = random_key();
      const auto [pos, inserted] = index.Insert(key, keys.size(), key_at);
      auto it = oracle.find(key);
      ASSERT_EQ(inserted, it == oracle.end());
      if (inserted) {
        ASSERT_EQ(pos, keys.size());
        oracle.emplace(key, pos);
        keys.push_back(key);
      } else {
        ASSERT_EQ(pos, it->second);
      }
    } else if (kind < 70) {
      if (keys.empty()) continue;
      // Swap-remove: the index learns both changes before the array does.
      const size_t pos = rng.NextBounded(keys.size());
      const size_t last = keys.size() - 1;
      const Key removed = keys[pos];
      index.Erase(removed, pos);
      oracle.erase(removed);
      if (pos != last) {
        index.Move(keys[last], last, pos);
        oracle[keys[last]] = static_cast<uint32_t>(pos);
        keys[pos] = keys[last];
      }
      keys.pop_back();
    } else {
      const Key key = random_key();
      auto it = oracle.find(key);
      ASSERT_EQ(index.Find(key, key_at),
                it == oracle.end() ? index.kNotFound : it->second);
    }
    ASSERT_EQ(index.size(), keys.size());
    max_size = std::max(max_size, keys.size());
    if (max_size > 0 && keys.empty()) drained = true;
    if (op % 997 == 0) {
      for (size_t pos = 0; pos < keys.size(); ++pos) {
        ASSERT_EQ(index.Find(keys[pos], key_at), pos);
      }
      ASSERT_LE(4 * index.size(), 3 * index.capacity());
    }
  }
  EXPECT_GT(max_size, universe / 4);
  EXPECT_TRUE(drained);
}

TEST(PositionIndexTest, MatchesUnorderedMapOracle) {
  RunAgainstOracle<uint64_t, IdHash>(100000, 8192, 7);
}

TEST(PositionIndexTest, WideIdsAreFound) {
  // Ids that differ only in their high bits.
  std::vector<uint64_t> keys;
  PositionIndex<uint64_t> index;
  auto key_at = [&keys](uint32_t pos) { return keys[pos]; };
  for (uint64_t k = 1; k <= 2000; ++k) {
    keys.push_back(k << 40);
    ASSERT_TRUE(index.Insert(keys.back(), keys.size() - 1, key_at).second);
  }
  for (size_t pos = 0; pos < keys.size(); ++pos) {
    ASSERT_EQ(index.Find(keys[pos], key_at), pos);
  }
}

TEST(PositionIndexTest, EdgeKeysMatchOracle) {
  RunAgainstOracle<EdgeId, IdHash>(50000, 64 * 64, 13);
}

TEST(PositionIndexTest, ConstantHashComparesFullKeysAndWraps) {
  RunAgainstOracle<uint64_t, ConstantHash>(20000, 256, 17);
}

TEST(PositionIndexTest, ReserveAvoidsGrowth) {
  std::vector<uint64_t> keys;
  PositionIndex<uint64_t> index;
  auto key_at = [&keys](uint32_t pos) { return keys[pos]; };
  index.Reserve(1000);
  const size_t capacity = index.capacity();
  EXPECT_GE(3 * capacity, 4 * 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    keys.push_back(k * 7919);
    ASSERT_TRUE(index.Insert(keys.back(), k, key_at).second);
  }
  EXPECT_EQ(index.capacity(), capacity);
  // A smaller reservation never shrinks the table.
  index.Reserve(10);
  EXPECT_EQ(index.capacity(), capacity);
  for (size_t pos = 0; pos < keys.size(); ++pos) {
    EXPECT_EQ(index.Find(keys[pos], key_at), pos);
  }
}

TEST(PositionIndexTest, RejectsPositionsBeyond32Bits) {
  using Index = PositionIndex<uint64_t>;
  Index index;
  auto key_at = [](uint32_t pos) { return uint64_t{pos}; };
  EXPECT_THROW(index.Insert(5, Index::kMaxPosition + 1, key_at),
               std::length_error);
  EXPECT_THROW(index.Insert(5, size_t{1} << 40, key_at), std::length_error);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Find(5, key_at), Index::kNotFound);
}

TEST(PositionIndexTest, CopyIsIndependent) {
  std::vector<uint64_t> keys = {10, 20, 30, 40};
  PositionIndex<uint64_t> index;
  auto key_at = [&keys](uint32_t pos) { return keys[pos]; };
  for (uint32_t pos = 0; pos < keys.size(); ++pos) {
    index.Insert(keys[pos], pos, key_at);
  }
  const std::vector<uint64_t> copy_keys = keys;
  const PositionIndex<uint64_t> copy = index;
  auto copy_at = [&copy_keys](uint32_t pos) { return copy_keys[pos]; };
  index.Erase(10, 0);
  index.Move(40, 3, 0);
  keys[0] = 40;
  keys.pop_back();
  EXPECT_EQ(index.Find(10, key_at), index.kNotFound);
  EXPECT_EQ(index.Find(40, key_at), 0u);
  EXPECT_EQ(copy.Find(10, copy_at), 0u);
  EXPECT_EQ(copy.Find(40, copy_at), 3u);
  EXPECT_EQ(copy.size(), 4u);
}

TEST(PositionIndexTest, GraphCloneLooksUpItsOwnSlots) {
  // The clone shares no index with the original: after the original
  // frees slots and reuses them for other ids, each graph still answers
  // from its own slots.
  Graph g;
  for (VertexId v = 0; v < 200; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 1; v < 200; ++v) ASSERT_TRUE(g.AddEdge(0, v).ok());
  const Graph clone = g.Clone();
  for (VertexId v = 100; v < 200; ++v) ASSERT_TRUE(g.RemoveVertex(v).ok());
  for (VertexId v = 1000; v < 1100; ++v) ASSERT_TRUE(g.AddVertex(v).ok());
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_TRUE(clone.HasVertex(v)) << v;
    EXPECT_EQ(g.HasVertex(v), v < 100) << v;
    if (v > 0) {
      EXPECT_TRUE(clone.HasEdge(0, v)) << v;
      EXPECT_EQ(g.HasEdge(0, v), v < 100) << v;
    }
  }
  for (VertexId v = 1000; v < 1100; ++v) {
    EXPECT_TRUE(g.HasVertex(v)) << v;
    EXPECT_FALSE(clone.HasVertex(v)) << v;
  }
  EXPECT_EQ(clone.OutDegree(0).value(), 199u);
  EXPECT_EQ(g.OutDegree(0).value(), 99u);
}

TEST(PositionIndexTest, FlatAdjListCopyKeepsItsOwnHubIndex) {
  FlatAdjList<uint64_t> list;
  for (uint64_t v = 0; v < 4 * kAdjIndexThreshold; ++v) list.Add(v * 3);
  const FlatAdjList<uint64_t> copy = list;
  for (uint64_t v = 0; v < 2 * kAdjIndexThreshold; ++v) list.Remove(v * 3);
  for (uint64_t v = 0; v < 4 * kAdjIndexThreshold; ++v) {
    const size_t in_copy = copy.Find(v * 3);
    ASSERT_NE(in_copy, copy.kNotFound) << v;
    EXPECT_EQ(copy[in_copy], v * 3);
    const size_t in_list = list.Find(v * 3);
    if (v < 2 * kAdjIndexThreshold) {
      EXPECT_EQ(in_list, list.kNotFound) << v;
    } else {
      ASSERT_NE(in_list, list.kNotFound) << v;
      EXPECT_EQ(list[in_list], v * 3);
    }
  }
  EXPECT_EQ(copy.Find(1), copy.kNotFound);
}

}  // namespace
}  // namespace graphtides
