#include "graph/csr.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>

#include "common/parallel.h"

namespace graphtides {
namespace {

using Index = CsrGraph::Index;

// How far ahead of the slot walk the next out-list is prefetched.
constexpr size_t kPrefetchSlots = 8;

// A live vertex as the slot walk finds it. Sorted by id, the array is the
// dense numbering, and its degrees are the offset arrays.
struct LiveVertex {
  VertexId id;
  uint32_t slot;
  uint32_t out_degree;
  uint32_t in_degree;
};

// Stable LSD radix sort by id, 11-bit digits. It stops after the highest
// digit of `max_id`: the digits above are zero for every id.
void RadixSortById(std::vector<LiveVertex>& items, VertexId max_id) {
  constexpr int kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  std::vector<LiveVertex> sorted(items.size());
  for (int shift = 0; shift < 64 && (max_id >> shift) != 0;
       shift += kDigitBits) {
    auto digit = [shift](const LiveVertex& v) {
      return (v.id >> shift) & (kBuckets - 1);
    };
    std::array<size_t, kBuckets> start{};
    for (const LiveVertex& v : items) ++start[digit(v)];
    size_t total = 0;
    for (size_t& bucket : start) total += std::exchange(bucket, total);
    for (const LiveVertex& v : items) sorted[start[digit(v)]++] = v;
    items.swap(sorted);
  }
}

// Lists laid out by `offsets` in `targets`, each cut in two: the entries
// of list v before cut[v] belong to part 0 of a transpose, the rest to
// part 1.
struct CutLists {
  const std::vector<size_t>& offsets;
  const std::vector<Index>& targets;
  const std::vector<size_t>& cut;
};

// Fills the lists laid out by `col_offsets` with the transpose of `rows`:
// column v receives every row u that holds v, in ascending u. Part 0 owns
// the columns below `col_half` and part 1 the rest, and the rows' cuts
// separate their entries, so each part walks all rows in order, reads its
// side of every cut and writes only its own lists. With `col_cut`, each
// part also records where every column it owns stands when its walk
// reaches row `row_half`: the cuts of the next transpose.
void Transpose(const CutLists& rows, size_t col_half,
               const std::vector<size_t>& col_offsets,
               std::vector<Index>& col_targets, size_t row_half,
               std::vector<size_t>* col_cut, size_t threads) {
  const size_t n = col_offsets.size() - 1;
  const std::pair<size_t, size_t> parts[] = {{0, col_half}, {col_half, n}};
  ParallelForChunks(
      std::span(parts, col_half < n ? 2 : 1), threads,
      [&](size_t k, size_t lo, size_t hi) {
        std::vector<size_t> cursor(col_offsets.begin() + lo,
                                   col_offsets.begin() + hi);
        auto walk = [&](size_t first, size_t last) {
          for (size_t u = first; u < last; ++u) {
            const size_t begin = k == 0 ? rows.offsets[u] : rows.cut[u];
            const size_t end = k == 0 ? rows.cut[u] : rows.offsets[u + 1];
            for (size_t e = begin; e < end; ++e) {
              col_targets[cursor[rows.targets[e] - lo]++] =
                  static_cast<Index>(u);
            }
          }
        };
        walk(0, row_half);
        if (col_cut != nullptr) {
          std::copy(cursor.begin(), cursor.end(), col_cut->begin() + lo);
        }
        walk(row_half, n);
      });
}

}  // namespace

CsrGraph CsrGraph::FromGraph(const Graph& graph, size_t threads) {
  CsrGraph csr;
  const size_t n = graph.num_vertices();
  const std::vector<Graph::VertexRecord>& slots = graph.slots_;

  // Dense numbering: the live (id, slot) pairs in slot order, radix-sorted
  // by id. A plain slot -> dense index array then resolves every neighbor
  // slot without hashing.
  std::vector<LiveVertex> live;
  live.reserve(n);
  VertexId max_id = 0;
  for (Graph::Slot s = 0; s < slots.size(); ++s) {
    const Graph::VertexRecord& record = slots[s];
    if (!record.live) continue;
    live.push_back({record.id, s, static_cast<uint32_t>(record.out.size()),
                    static_cast<uint32_t>(record.in.size())});
    max_id = std::max(max_id, record.id);
  }
  RadixSortById(live, max_id);

  csr.ids_.resize(n);
  csr.out_offsets_.assign(n + 1, 0);
  csr.in_offsets_.assign(n + 1, 0);
  std::vector<Index> dense_of(slots.size());
  for (Index i = 0; i < n; ++i) {
    csr.ids_[i] = live[i].id;
    dense_of[live[i].slot] = i;
    csr.out_offsets_[i + 1] = csr.out_offsets_[i] + live[i].out_degree;
    csr.in_offsets_[i + 1] = csr.in_offsets_[i] + live[i].in_degree;
  }

  // With two or more threads each transpose runs as two parts that own
  // the lists below and above the one holding its middle entry. The pass
  // that writes a row can cut it in two for free; more parts would need
  // a counting pass per row.
  const bool two_parts = ResolveThreads(threads) > 1;
  auto half = [&](const std::vector<size_t>& offsets) -> size_t {
    if (!two_parts) return n;
    return std::lower_bound(offsets.begin(), offsets.end(), offsets[n] / 2) -
           offsets.begin();
  };
  const size_t in_half = half(csr.in_offsets_);
  const size_t out_half = half(csr.out_offsets_);

  // One walk of the slots, in parallel over slot ranges, stages every
  // out-row in out_targets_ as dense indices, cut at in_half: targets
  // below it fill the row from the front, the others from the back (both
  // ends are written, so the loop has no branch). The Graph's in-lists are
  // never read: the first transpose builds the in-lists sorted from the
  // staged rows, the second the out-lists sorted from the in-lists, over
  // the staging.
  csr.out_targets_.resize(graph.num_edges());
  csr.in_targets_.resize(graph.num_edges());
  std::vector<size_t> out_cut(n);
  ParallelFor(0, slots.size(), {.threads = threads, .grain = 4096},
              [&](size_t begin, size_t end) {
                Index* targets = csr.out_targets_.data();
                for (size_t s = begin; s < end; ++s) {
                  // Every out-list is a heap block of its own; fetching the
                  // one a few slots ahead hides most of the miss.
                  if (s + kPrefetchSlots < end) {
                    __builtin_prefetch(
                        std::to_address(slots[s + kPrefetchSlots].out.begin()));
                  }
                  if (!slots[s].live) continue;
                  const Index u = dense_of[s];
                  size_t front = csr.out_offsets_[u];
                  size_t back = csr.out_offsets_[u + 1];
                  for (Graph::Slot dst : slots[s].out) {
                    const Index v = dense_of[dst];
                    targets[front] = v;
                    targets[back - 1] = v;
                    const bool low = v < in_half;
                    front += low;
                    back -= !low;
                  }
                  out_cut[u] = front;
                }
              });
  std::vector<size_t> in_cut(n);
  Transpose({csr.out_offsets_, csr.out_targets_, out_cut}, in_half,
            csr.in_offsets_, csr.in_targets_, out_half, &in_cut, threads);
  Transpose({csr.in_offsets_, csr.in_targets_, in_cut}, out_half,
            csr.out_offsets_, csr.out_targets_, n, nullptr, threads);
  return csr;
}

bool CsrGraph::IndexOf(VertexId id, Index* out) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  *out = static_cast<Index>(it - ids_.begin());
  return true;
}

}  // namespace graphtides
