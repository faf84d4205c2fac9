#include "generator/topology_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace graphtides {

namespace {

/// Memoized (d + 1)^bias for small degrees. Degree-biased selection calls
/// pow() per candidate otherwise, which dominates generation time under
/// power-law models; nearly all candidates have small degrees, so caching
/// the weight per (bias, degree) removes almost every pow call. Weights are
/// bit-identical to the direct computation, so selection is unchanged.
/// Holds a few bias values at once because models alternate between biases
/// (e.g. negative for removals, positive for edge targets).
struct BiasWeightCache {
  static constexpr size_t kMaxDegree = 1024;
  static constexpr size_t kMaxBiases = 4;

  struct Entry {
    double bias = 0.0;
    bool valid = false;
    std::array<double, kMaxDegree> weight;  // NaN = not yet computed

    double Weight(size_t degree) {
      if (degree >= kMaxDegree) {
        return std::pow(static_cast<double>(degree) + 1.0, bias);
      }
      double& w = weight[degree];
      if (std::isnan(w)) w = std::pow(static_cast<double>(degree) + 1.0, bias);
      return w;
    }
  };
  std::array<Entry, kMaxBiases> entries;
  size_t next_victim = 0;

  /// Entry for `bias`, evicting round-robin on a miss. Callers hoist this
  /// lookup out of their per-candidate loop.
  Entry& EntryFor(double bias) {
    for (Entry& e : entries) {
      if (e.valid && e.bias == bias) return e;
    }
    Entry& e = entries[next_victim];
    next_victim = (next_victim + 1) % kMaxBiases;
    e.bias = bias;
    e.valid = true;
    e.weight.fill(std::numeric_limits<double>::quiet_NaN());
    return e;
  }
};

thread_local BiasWeightCache g_bias_cache;

}  // namespace

Status TopologyIndex::AddVertex(VertexId id) {
  if (!vertex_pos_.Insert(id, vertices_.size(), VertexAt()).second) {
    return Status::PreconditionFailed("vertex already exists: " +
                                      std::to_string(id));
  }
  vertices_.push_back(id);
  adj_.emplace_back();
  return Status::OK();
}

Status TopologyIndex::RemoveVertex(VertexId id) {
  const uint32_t pos = vertex_pos_.Find(id, VertexAt());
  if (pos == kNoPos) {
    return Status::PreconditionFailed("vertex does not exist: " +
                                      std::to_string(id));
  }
  // Cascade edge removal straight off the adjacency vectors — RemoveEdge
  // swap-removes the drained entry, so each iteration shrinks the list
  // without copying it first. Edge removal never moves vertex slots, so
  // `pos` stays valid throughout.
  while (!adj_[pos].out.empty()) {
    Status st = RemoveEdge(id, adj_[pos].out.back());
    (void)st;
  }
  while (!adj_[pos].in.empty()) {
    Status st = RemoveEdge(adj_[pos].in.back(), id);
    (void)st;
  }
  // Swap-remove from the dense vertex vector (adj_ moves in lockstep).
  const size_t last_pos = vertices_.size() - 1;
  vertex_pos_.Erase(id, pos);
  if (pos != last_pos) {
    const VertexId last = vertices_[last_pos];
    vertex_pos_.Move(last, last_pos, pos);
    vertices_[pos] = last;
    adj_[pos] = std::move(adj_[last_pos]);
  }
  vertices_.pop_back();
  adj_.pop_back();
  return Status::OK();
}

Status TopologyIndex::AddEdge(VertexId src, VertexId dst) {
  if (src == dst) {
    return Status::PreconditionFailed("self-loops are not allowed");
  }
  const uint32_t src_pos = vertex_pos_.Find(src, VertexAt());
  const uint32_t dst_pos = vertex_pos_.Find(dst, VertexAt());
  if (src_pos == kNoPos || dst_pos == kNoPos) {
    return Status::PreconditionFailed("edge endpoint does not exist");
  }
  const EdgeId edge{src, dst};
  if (!edge_pos_.Insert(edge, edges_.size(), EdgeAt()).second) {
    return Status::PreconditionFailed("edge already exists");
  }
  edges_.push_back(edge);
  adj_[src_pos].out.Add(dst);
  adj_[dst_pos].in.Add(src);
  return Status::OK();
}

Status TopologyIndex::RemoveEdge(VertexId src, VertexId dst) {
  const EdgeId edge{src, dst};
  const uint32_t pos = edge_pos_.Find(edge, EdgeAt());
  if (pos == kNoPos) {
    return Status::PreconditionFailed("edge does not exist");
  }
  const size_t last_pos = edges_.size() - 1;
  edge_pos_.Erase(edge, pos);
  if (pos != last_pos) {
    const EdgeId last = edges_[last_pos];
    edge_pos_.Move(last, last_pos, pos);
    edges_[pos] = last;
  }
  edges_.pop_back();
  adj_[vertex_pos_.Find(src, VertexAt())].out.Remove(dst);
  adj_[vertex_pos_.Find(dst, VertexAt())].in.Remove(src);
  return Status::OK();
}

bool TopologyIndex::HasVertex(VertexId id) const {
  return vertex_pos_.Find(id, VertexAt()) != kNoPos;
}

bool TopologyIndex::HasEdge(VertexId src, VertexId dst) const {
  return edge_pos_.Find(EdgeId{src, dst}, EdgeAt()) != kNoPos;
}

size_t TopologyIndex::DegreeOf(VertexId id) const {
  const uint32_t pos = vertex_pos_.Find(id, VertexAt());
  if (pos == kNoPos) return 0;
  return adj_[pos].out.size() + adj_[pos].in.size();
}

size_t TopologyIndex::OutDegreeOf(VertexId id) const {
  const uint32_t pos = vertex_pos_.Find(id, VertexAt());
  return pos == kNoPos ? 0 : adj_[pos].out.size();
}

std::optional<VertexId> TopologyIndex::UniformVertex(Rng& rng) const {
  if (vertices_.empty()) return std::nullopt;
  return vertices_[rng.NextBounded(vertices_.size())];
}

std::optional<EdgeId> TopologyIndex::UniformEdge(Rng& rng) const {
  if (edges_.empty()) return std::nullopt;
  return edges_[rng.NextBounded(edges_.size())];
}

std::optional<VertexId> TopologyIndex::PreferentialVertex(Rng& rng) const {
  if (edges_.empty()) return UniformVertex(rng);
  const EdgeId e = edges_[rng.NextBounded(edges_.size())];
  return rng.NextBool(0.5) ? e.src : e.dst;
}

std::optional<VertexId> TopologyIndex::DegreeBiasedVertex(
    Rng& rng, double bias, size_t candidates) const {
  if (vertices_.empty()) return std::nullopt;
  if (bias == 0.0 || vertices_.size() == 1) return UniformVertex(rng);
  constexpr size_t kMaxCandidates = 64;
  candidates = std::min({candidates, vertices_.size(), kMaxCandidates});
  // Stack buffers: this runs once per degree-biased selection attempt, so
  // it must not allocate.
  VertexId picks[kMaxCandidates] = {};
  double weights[kMaxCandidates] = {};
  BiasWeightCache::Entry& cache = g_bias_cache.EntryFor(bias);
  for (size_t i = 0; i < candidates; ++i) {
    const size_t slot = rng.NextBounded(vertices_.size());
    picks[i] = vertices_[slot];
    const size_t degree = adj_[slot].out.size() + adj_[slot].in.size();
    weights[i] = cache.Weight(degree);
  }
  const size_t chosen = rng.NextWeighted(weights, candidates);
  if (chosen >= candidates) return picks[0];
  return picks[chosen];
}

std::optional<VertexId> TopologyIndex::UniformVertexOtherThan(
    Rng& rng, VertexId other) const {
  if (vertices_.empty()) return std::nullopt;
  if (vertices_.size() == 1) {
    return vertices_[0] == other ? std::nullopt
                                 : std::optional<VertexId>(vertices_[0]);
  }
  for (int attempt = 0; attempt < 16; ++attempt) {
    const VertexId v = vertices_[rng.NextBounded(vertices_.size())];
    if (v != other) return v;
  }
  // Degenerate duplicate-heavy case: linear scan.
  for (VertexId v : vertices_) {
    if (v != other) return v;
  }
  return std::nullopt;
}

}  // namespace graphtides
