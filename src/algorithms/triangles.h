// Triangle counting and clustering coefficient (Table 1: "Graph theory").
// Operates on the undirected view of the graph.
#ifndef GRAPHTIDES_ALGORITHMS_TRIANGLES_H_
#define GRAPHTIDES_ALGORITHMS_TRIANGLES_H_

#include <cstddef>
#include <cstdint>

#include "graph/csr.h"

namespace graphtides {

/// \brief Exact triangle count over the undirected view (each triangle
/// counted once). Degree-ordered forward lists share one flat array laid
/// out by the incident (out + in) degree prefix; the intersection marks
/// forward(v) in a per-thread byte array, counts marked entries of each
/// forward(w), w in forward(v), and unmarks, so the array is all-zero
/// between uses. `threads` (0 = auto, 1 = sequential) parallelizes over
/// degree-balanced vertex chunks; the count is an integer sum folded in
/// fixed chunk order, so it is identical at every thread count.
uint64_t CountTriangles(const CsrGraph& graph, size_t threads = 0);

/// \brief Global clustering coefficient: 3 * triangles / open-or-closed
/// wedges, the wedges taken from the same undirected-degree pass as the
/// forward lists. Returns 0 if the graph has no wedges. Deterministic for any
/// `threads` (0 = auto, 1 = sequential).
double GlobalClusteringCoefficient(const CsrGraph& graph, size_t threads = 0);

}  // namespace graphtides

#endif  // GRAPHTIDES_ALGORITHMS_TRIANGLES_H_
