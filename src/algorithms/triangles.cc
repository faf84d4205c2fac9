#include "algorithms/triangles.h"

#include <functional>
#include <span>
#include <vector>

#include "common/parallel.h"

namespace graphtides {

namespace {

using Index = CsrGraph::Index;

/// Per-thread intersection marks, indexed by vertex; all-zero between uses
/// and grown (zero-filled) on demand, so one array serves any graph.
thread_local std::vector<uint8_t> t_marks;

/// Returns the triangle count and stores the undirected wedge count.
uint64_t CountTrianglesAndWedges(const CsrGraph& graph, size_t threads,
                                 uint64_t* wedge_count) {
  const size_t n = graph.num_vertices();
  // Both vertex passes chunk by the incident (out + in) degree prefix; v
  // owns the disjoint range [incident[v], incident[v + 1]) of one array.
  std::vector<size_t> incident(n + 1);
  for (size_t v = 0; v <= n; ++v) {
    incident[v] = graph.out_offsets()[v] + graph.in_offsets()[v];
  }
  const auto vertex_chunks = DegreeBalancedChunks(incident, 8192);
  std::vector<Index> flat(incident[n]);
  std::vector<Index> deg(n);
  std::vector<Index> forward_len(n);
  // Pass 1: merge v's sorted out- and in-spans (each duplicate-free) into
  // its range; the merged length is v's undirected degree.
  *wedge_count = ParallelReduceChunks(
      vertex_chunks, threads, uint64_t{0},
      [&](size_t begin, size_t end) {
        uint64_t wedges = 0;
        for (size_t v = begin; v < end; ++v) {
          const auto out = graph.OutNeighbors(static_cast<Index>(v));
          const auto in = graph.InNeighbors(static_cast<Index>(v));
          Index* list = flat.data() + incident[v];
          uint64_t d = 0;
          for (size_t i = 0, j = 0; i < out.size() || j < in.size();) {
            if (j == in.size() || (i < out.size() && out[i] < in[j])) {
              list[d++] = out[i++];
            } else {
              if (i < out.size() && out[i] == in[j]) ++i;
              list[d++] = in[j++];
            }
          }
          deg[v] = static_cast<Index>(d);
          wedges += d * (d - 1) / 2;
        }
        return wedges;
      },
      std::plus<>());

  // Pass 2: rank vertices by (degree, index) and keep only forward edges,
  // so every triangle has exactly one representation. Each list is
  // compacted in place and stays sorted; `forward_len` records its length.
  ParallelForChunks(vertex_chunks, threads, [&](size_t, size_t begin,
                                                size_t end) {
    for (size_t v = begin; v < end; ++v) {
      Index* list = flat.data() + incident[v];
      Index len = 0;
      for (Index k = 0; k < deg[v]; ++k) {
        const Index w = list[k];
        if (deg[v] < deg[w] || (deg[v] == deg[w] && v < w)) list[len++] = w;
      }
      forward_len[v] = len;
    }
  });
  auto forward_of = [&](size_t v) {
    return std::span<const Index>(flat.data() + incident[v],
                                  forward_len[v]);
  };

  // Chunk the intersection by forward degree, so hubs land in their own
  // chunks. The layout depends only on the graph, so the chunk partials
  // and their in-order integer fold are identical at every thread count.
  std::vector<size_t> forward_prefix(n + 1, 0);
  for (size_t v = 0; v < n; ++v) {
    forward_prefix[v + 1] = forward_prefix[v] + forward_len[v];
  }
  return ParallelReduceChunks(
      DegreeBalancedChunks(forward_prefix, 4096), threads, uint64_t{0},
      [&](size_t begin, size_t end) {
        std::vector<uint8_t>& marks = t_marks;
        if (marks.size() < n) marks.resize(n);
        uint64_t triangles = 0;
        for (size_t v = begin; v < end; ++v) {
          const auto fv = forward_of(v);
          if (fv.size() < 2) continue;
          // Mark forward(v); each marked x in forward(w), w in forward(v),
          // closes one triangle. Unmark before the next vertex.
          for (Index x : fv) marks[x] = 1;
          for (Index w : fv) {
            for (Index x : forward_of(w)) triangles += marks[x];
          }
          for (Index x : fv) marks[x] = 0;
        }
        return triangles;
      },
      std::plus<>());
}

}  // namespace

uint64_t CountTriangles(const CsrGraph& graph, size_t threads) {
  uint64_t wedges = 0;
  return CountTrianglesAndWedges(graph, threads, &wedges);
}

double GlobalClusteringCoefficient(const CsrGraph& graph, size_t threads) {
  uint64_t wedges = 0;
  const uint64_t triangles = CountTrianglesAndWedges(graph, threads, &wedges);
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

}  // namespace graphtides
