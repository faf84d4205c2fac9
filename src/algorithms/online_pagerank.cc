#include "algorithms/online_pagerank.h"

#include <algorithm>
#include <cmath>

namespace graphtides {

OnlinePageRankCore::OnlinePageRankCore(OnlinePageRankOptions options,
                                       size_t parts, size_t part)
    : options_(options), parts_(parts), part_(part) {}

uint32_t OnlinePageRankCore::FindOrAdd(VertexId v) {
  // The slot is picked first and taken only if `v` is new.
  const size_t next =
      free_slots_.empty() ? slots_.size() : free_slots_.back();
  const auto [s, inserted] = slot_of_.Insert(v, next, IdAt());
  if (!inserted) return s;
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  Slot& slot = slots_[s];
  slot.id = v;
  slot.used = true;
  return s;
}

void OnlinePageRankCore::MaybeEnqueue(Slot& slot) {
  if (!slot.queued && std::abs(slot.residual) > options_.push_threshold) {
    slot.queued = true;
    queue_.push_back(slot.id);
  }
}

void OnlinePageRankCore::AddLocalResidual(VertexId v, double delta) {
  Slot& slot = slots_[FindOrAdd(v)];
  slot.residual += delta;
  MaybeEnqueue(slot);
}

void OnlinePageRankCore::AdjustBuffered(VertexId target, double delta) {
  if (delta == 0.0) return;
  if (IsLocal(target)) {
    AddLocalResidual(target, delta);
  } else {
    pending_remote_.emplace_back(target, delta);
  }
}

void OnlinePageRankCore::AddVertex(VertexId v) {
  Slot& slot = slots_[FindOrAdd(v)];
  slot.present = true;
  slot.residual += 1.0;  // teleport injection b_v = 1
  MaybeEnqueue(slot);
}

void OnlinePageRankCore::RemoveVertex(
    VertexId v, const std::vector<VertexId>& in_neighbors) {
  const uint32_t s = Find(v);
  if (s == kNoSlot) return;
  // Drops b_v, x_v, r_v; a queued entry is skipped later.
  slot_of_.Erase(v, s);
  Slot& slot = slots_[s];
  const double x = slot.score;
  const std::vector<VertexId> out = std::move(slot.out);
  slot = Slot{};
  free_slots_.push_back(s);
  estimate_mass_ -= x;

  // Column v of W disappears: out-neighbors lose d * x / deg.
  if (!out.empty() && x != 0.0) {
    const double share =
        options_.damping * x / static_cast<double>(out.size());
    for (VertexId w : out) AdjustBuffered(w, -share);
  }
  // In-neighbors' transition columns renormalize: equivalent to removing
  // the edge s -> v from each.
  for (VertexId u : in_neighbors) {
    if (u != v) RemoveEdge(u, v);
  }
}

void OnlinePageRankCore::AddEdge(VertexId u, VertexId w) {
  const uint32_t s = FindOrAdd(u);
  std::vector<VertexId>& out = slots_[s].out;
  if (std::find(out.begin(), out.end(), w) != out.end()) return;
  const size_t k = out.size();
  out.push_back(w);
  const double x = slots_[s].score;
  if (x == 0.0) return;
  // d * x * (new_distribution - old_distribution):
  // old neighbors go from 1/k to 1/(k+1); w gains 1/(k+1). AdjustBuffered
  // may grow slots_, so slot s is re-read per neighbor.
  const double m = static_cast<double>(k + 1);
  if (k > 0) {
    const double shrink =
        options_.damping * x * (1.0 / m - 1.0 / static_cast<double>(k));
    for (size_t i = 0; i < k; ++i) AdjustBuffered(slots_[s].out[i], shrink);
  }
  AdjustBuffered(w, options_.damping * x / m);
}

void OnlinePageRankCore::RemoveEdge(VertexId u, VertexId w) {
  const uint32_t s = Find(u);
  if (s == kNoSlot) return;
  std::vector<VertexId>& out = slots_[s].out;
  auto pos = std::find(out.begin(), out.end(), w);
  if (pos == out.end()) return;
  const size_t k = out.size();
  out.erase(pos);
  const double x = slots_[s].score;
  if (x == 0.0) return;
  // Old neighbors went from 1/k each to 1/(k-1); w loses its 1/k.
  if (k > 1) {
    const double grow =
        options_.damping * x *
        (1.0 / static_cast<double>(k - 1) - 1.0 / static_cast<double>(k));
    for (size_t i = 0; i + 1 < k; ++i) {
      AdjustBuffered(slots_[s].out[i], grow);
    }
  }
  AdjustBuffered(w, -options_.damping * x / static_cast<double>(k));
}

void OnlinePageRankCore::AddResidualIfPresent(VertexId v, double amount) {
  const uint32_t s = Find(v);
  if (s == kNoSlot || !slots_[s].present || amount == 0.0) return;
  slots_[s].residual += amount;
  MaybeEnqueue(slots_[s]);
}

double OnlinePageRankCore::EstimateOf(VertexId v) const {
  const uint32_t s = Find(v);
  return s == kNoSlot ? 0.0 : slots_[s].score;
}

std::vector<std::pair<VertexId, double>> OnlinePageRankCore::Estimates()
    const {
  std::vector<std::pair<VertexId, double>> out;
  out.reserve(slot_of_.size());
  for (const Slot& slot : slots_) {
    if (slot.used) out.emplace_back(slot.id, slot.score);
  }
  return out;
}

size_t OnlinePageRankCore::OutDegreeOf(VertexId v) const {
  const uint32_t s = Find(v);
  return s == kNoSlot ? 0 : slots_[s].out.size();
}

std::vector<VertexId> OnlinePageRankCore::OutNeighborsOf(VertexId v) const {
  const uint32_t s = Find(v);
  return s == kNoSlot ? std::vector<VertexId>{} : slots_[s].out;
}

// ---------------------------------------------------------------------------
// OnlinePageRank (single-process wrapper)
// ---------------------------------------------------------------------------

OnlinePageRank::OnlinePageRank(OnlinePageRankOptions options)
    : core_(options, 1, 0) {}

void OnlinePageRank::OnEventApplied(const Event& event) {
  switch (event.type) {
    case EventType::kAddVertex:
      core_.AddVertex(event.vertex);
      in_.try_emplace(event.vertex);
      break;
    case EventType::kRemoveVertex: {
      auto it = in_.find(event.vertex);
      std::vector<VertexId> in_neighbors;
      if (it != in_.end()) {
        in_neighbors.assign(it->second.begin(), it->second.end());
      }
      // v appears only in the in-sets of its out-neighbors; read them
      // before the core forgets v's out-list.
      const std::vector<VertexId> out = core_.OutNeighborsOf(event.vertex);
      core_.RemoveVertex(event.vertex, in_neighbors);
      if (it != in_.end()) in_.erase(it);
      for (VertexId w : out) {
        auto target = in_.find(w);
        if (target != in_.end()) target->second.erase(event.vertex);
      }
      break;
    }
    case EventType::kAddEdge:
      core_.AddEdge(event.edge.src, event.edge.dst);
      in_[event.edge.dst].insert(event.edge.src);
      break;
    case EventType::kRemoveEdge:
      core_.RemoveEdge(event.edge.src, event.edge.dst);
      in_[event.edge.dst].erase(event.edge.src);
      break;
    case EventType::kUpdateVertex:
    case EventType::kUpdateEdge:
    case EventType::kMarker:
    case EventType::kSetRate:
    case EventType::kPause:
      break;
  }
}

size_t OnlinePageRank::ProcessPending(size_t max_pushes) {
  return core_.ProcessPushes(max_pushes,
                             [](VertexId, double) { /* all local */ });
}

double OnlinePageRank::RankOf(VertexId v) const {
  const double mass = core_.EstimateMass();
  if (mass <= 0.0) return 0.0;
  return core_.EstimateOf(v) / mass;
}

std::unordered_map<VertexId, double> OnlinePageRank::NormalizedRanks() const {
  std::unordered_map<VertexId, double> out;
  const double mass = core_.EstimateMass();
  if (mass <= 0.0) return out;
  for (const auto& [v, estimate] : core_.Estimates()) {
    out.emplace(v, estimate / mass);
  }
  return out;
}

}  // namespace graphtides
