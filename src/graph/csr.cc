#include "graph/csr.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"

namespace graphtides {

CsrGraph CsrGraph::FromGraph(const Graph& graph, size_t threads) {
  CsrGraph csr;
  const size_t n = graph.num_vertices();

  // One walk over the slots yields the live (id, slot) pairs; sorted by id
  // they give the dense numbering, and a plain slot -> dense index array
  // then resolves every neighbor slot without hashing.
  std::vector<std::pair<VertexId, Graph::Slot>> order;
  order.reserve(n);
  for (Graph::Slot s = 0; s < graph.slots_.size(); ++s) {
    if (graph.slots_[s].live) order.emplace_back(graph.slots_[s].id, s);
  }
  std::sort(order.begin(), order.end());

  csr.ids_.resize(n);
  std::vector<Index> dense_of(graph.slots_.size());
  for (Index i = 0; i < n; ++i) {
    csr.ids_[i] = order[i].first;
    dense_of[order[i].second] = i;
  }
  auto record = [&](size_t v) -> const Graph::VertexRecord& {
    return graph.slots_[order[v].second];
  };

  csr.out_offsets_.assign(n + 1, 0);
  csr.in_offsets_.assign(n + 1, 0);
  if (n == 0) return csr;

  // Degree pass: each vertex's degrees come straight off its record.
  ParallelFor(0, n, {.threads = threads, .grain = 8192},
              [&](size_t begin, size_t end) {
                for (size_t v = begin; v < end; ++v) {
                  csr.out_offsets_[v + 1] = record(v).out.size();
                  csr.in_offsets_[v + 1] = record(v).in.size();
                }
              });
  // Prefix sums (O(n), sequential), plus the combined work prefix that
  // drives degree-balanced chunking of the scatter pass.
  std::vector<size_t> work(n + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    work[i] = work[i - 1] + csr.out_offsets_[i] + csr.in_offsets_[i];
    csr.out_offsets_[i] += csr.out_offsets_[i - 1];
    csr.in_offsets_[i] += csr.in_offsets_[i - 1];
  }

  // Scatter pass: every vertex fills and sorts its own target ranges, so
  // no two chunks ever write the same cache line's worth of slots twice
  // and no atomics are needed. The slot -> index array is read-only here.
  csr.out_targets_.resize(graph.num_edges());
  csr.in_targets_.resize(graph.num_edges());
  const auto chunks = DegreeBalancedChunks(work, 16384);
  ParallelForChunks(
      chunks, threads, [&](size_t, size_t begin, size_t end) {
        for (size_t v = begin; v < end; ++v) {
          const Graph::VertexRecord& from = record(v);
          size_t cursor = csr.out_offsets_[v];
          for (Graph::Slot dst : from.out) {
            csr.out_targets_[cursor++] = dense_of[dst];
          }
          std::sort(csr.out_targets_.begin() + csr.out_offsets_[v],
                    csr.out_targets_.begin() + cursor);
          cursor = csr.in_offsets_[v];
          for (Graph::Slot src : from.in) {
            csr.in_targets_[cursor++] = dense_of[src];
          }
          std::sort(csr.in_targets_.begin() + csr.in_offsets_[v],
                    csr.in_targets_.begin() + cursor);
        }
      });
  return csr;
}

bool CsrGraph::IndexOf(VertexId id, Index* out) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) return false;
  *out = static_cast<Index>(it - ids_.begin());
  return true;
}

}  // namespace graphtides
