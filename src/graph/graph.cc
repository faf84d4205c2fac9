#include "graph/graph.h"

namespace graphtides {

namespace {

std::string EdgeName(VertexId src, VertexId dst) {
  return std::to_string(src) + "-" + std::to_string(dst);
}

}  // namespace

const Graph::VertexRecord* Graph::Find(VertexId id) const {
  const Slot slot = SlotOf(id);
  return slot == kNoSlot ? nullptr : &slots_[slot];
}

size_t Graph::FindEdge(VertexId src, VertexId dst, Slot* src_slot) const {
  const Slot from = SlotOf(src);
  if (from == kNoSlot) return kNoEdge;
  const Slot to = SlotOf(dst);
  if (to == kNoSlot) return kNoEdge;
  *src_slot = from;
  return slots_[from].out.Find(to);
}

void Graph::RemoveOutAt(VertexRecord& record, size_t pos) {
  record.out.RemoveAt(pos);
  record.out_state[pos] = std::move(record.out_state.back());
  record.out_state.pop_back();
}

Status Graph::AddVertex(VertexId id, std::string state) {
  // The slot is picked first and taken only if the id is new.
  const size_t slot =
      free_slots_.empty() ? slots_.size() : free_slots_.back();
  if (!slot_of_.Insert(id, slot, IdAt()).second) {
    return Status::PreconditionFailed("vertex already exists: " +
                                      std::to_string(id));
  }
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  VertexRecord& record = slots_[slot];
  record.id = id;
  record.state = std::move(state);
  record.live = true;
  return Status::OK();
}

Status Graph::RemoveVertex(VertexId id) {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) {
    return Status::PreconditionFailed("vertex does not exist: " +
                                      std::to_string(id));
  }
  // Cascade-remove incident edges from the neighbors' lists; this
  // vertex's own lists go with its record.
  slot_of_.Erase(id, slot);
  VertexRecord& record = slots_[slot];
  for (Slot dst : record.out) slots_[dst].in.Remove(slot);
  for (Slot src : record.in) {
    VertexRecord& from = slots_[src];
    RemoveOutAt(from, from.out.Find(slot));
  }
  num_edges_ -= record.out.size() + record.in.size();
  record = VertexRecord();
  free_slots_.push_back(slot);
  return Status::OK();
}

Status Graph::UpdateVertexState(VertexId id, std::string state) {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) {
    return Status::PreconditionFailed("vertex does not exist: " +
                                      std::to_string(id));
  }
  slots_[slot].state = std::move(state);
  return Status::OK();
}

Status Graph::AddEdge(VertexId src, VertexId dst, std::string state) {
  if (src == dst) {
    return Status::PreconditionFailed("self-loops are not allowed: " +
                                      EdgeName(src, dst));
  }
  const Slot src_slot = SlotOf(src);
  if (src_slot == kNoSlot) {
    return Status::PreconditionFailed("edge source does not exist: " +
                                      std::to_string(src));
  }
  const Slot dst_slot = SlotOf(dst);
  if (dst_slot == kNoSlot) {
    return Status::PreconditionFailed("edge destination does not exist: " +
                                      std::to_string(dst));
  }
  VertexRecord& from = slots_[src_slot];
  if (from.out.Find(dst_slot) != kNoEdge) {
    return Status::PreconditionFailed("edge already exists: " +
                                      EdgeName(src, dst));
  }
  from.out.Add(dst_slot);
  from.out_state.push_back(std::move(state));
  slots_[dst_slot].in.Add(src_slot);
  ++num_edges_;
  return Status::OK();
}

Status Graph::RemoveEdge(VertexId src, VertexId dst) {
  Slot src_slot = 0;
  const size_t pos = FindEdge(src, dst, &src_slot);
  if (pos == kNoEdge) {
    return Status::PreconditionFailed("edge does not exist: " +
                                      EdgeName(src, dst));
  }
  VertexRecord& from = slots_[src_slot];
  slots_[from.out[pos]].in.Remove(src_slot);
  RemoveOutAt(from, pos);
  --num_edges_;
  return Status::OK();
}

Status Graph::UpdateEdgeState(VertexId src, VertexId dst, std::string state) {
  Slot src_slot = 0;
  const size_t pos = FindEdge(src, dst, &src_slot);
  if (pos == kNoEdge) {
    return Status::PreconditionFailed("edge does not exist: " +
                                      EdgeName(src, dst));
  }
  slots_[src_slot].out_state[pos] = std::move(state);
  return Status::OK();
}

Status Graph::Apply(const Event& event) {
  switch (event.type) {
    case EventType::kAddVertex:
      return AddVertex(event.vertex, event.payload);
    case EventType::kRemoveVertex:
      return RemoveVertex(event.vertex);
    case EventType::kUpdateVertex:
      return UpdateVertexState(event.vertex, event.payload);
    case EventType::kAddEdge:
      return AddEdge(event.edge.src, event.edge.dst, event.payload);
    case EventType::kRemoveEdge:
      return RemoveEdge(event.edge.src, event.edge.dst);
    case EventType::kUpdateEdge:
      return UpdateEdgeState(event.edge.src, event.edge.dst, event.payload);
    case EventType::kMarker:
    case EventType::kSetRate:
    case EventType::kPause:
      return Status::OK();
  }
  return Status::Internal("unhandled event type");
}

Status Graph::ApplyAll(const std::vector<Event>& events) {
  // Pre-size the id map and the slot vector: rehash and reallocation churn
  // dominate large snapshot replays otherwise.
  size_t added_vertices = 0;
  for (const Event& e : events) {
    if (e.type == EventType::kAddVertex) ++added_vertices;
  }
  if (added_vertices > 0) {
    slot_of_.Reserve(slot_of_.size() + added_vertices);
    if (added_vertices > free_slots_.size()) {
      slots_.reserve(slots_.size() + added_vertices - free_slots_.size());
    }
  }
  for (size_t i = 0; i < events.size(); ++i) {
    Status st = Apply(events[i]);
    if (!st.ok()) {
      return st.WithContext("event " + std::to_string(i));
    }
  }
  return Status::OK();
}

void Graph::Clear() {
  slot_of_.Clear();
  slots_.clear();
  free_slots_.clear();
  num_edges_ = 0;
}

bool Graph::HasEdge(VertexId src, VertexId dst) const {
  Slot src_slot = 0;
  return FindEdge(src, dst, &src_slot) != kNoEdge;
}

Result<std::string> Graph::GetVertexState(VertexId id) const {
  const VertexRecord* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("vertex does not exist: " + std::to_string(id));
  }
  return record->state;
}

Result<std::string> Graph::GetEdgeState(VertexId src, VertexId dst) const {
  Slot src_slot = 0;
  const size_t pos = FindEdge(src, dst, &src_slot);
  if (pos == kNoEdge) {
    return Status::NotFound("edge does not exist: " + EdgeName(src, dst));
  }
  return slots_[src_slot].out_state[pos];
}

Result<size_t> Graph::OutDegree(VertexId id) const {
  const VertexRecord* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("vertex does not exist: " + std::to_string(id));
  }
  return record->out.size();
}

Result<size_t> Graph::InDegree(VertexId id) const {
  const VertexRecord* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("vertex does not exist: " + std::to_string(id));
  }
  return record->in.size();
}

Result<size_t> Graph::Degree(VertexId id) const {
  const VertexRecord* record = Find(id);
  if (record == nullptr) {
    return Status::NotFound("vertex does not exist: " + std::to_string(id));
  }
  return record->out.size() + record->in.size();
}

std::vector<VertexId> Graph::VertexIds() const {
  std::vector<VertexId> ids;
  ids.reserve(slot_of_.size());
  for (const VertexRecord& record : slots_) {
    if (record.live) ids.push_back(record.id);
  }
  return ids;
}

void Graph::ForEachVertex(
    const std::function<void(VertexId, const std::string&)>& fn) const {
  for (const VertexRecord& record : slots_) {
    if (record.live) fn(record.id, record.state);
  }
}

void Graph::ForEachOutEdge(
    VertexId src,
    const std::function<void(VertexId, const std::string&)>& fn) const {
  const VertexRecord* record = Find(src);
  if (record == nullptr) return;
  for (size_t i = 0; i < record->out.size(); ++i) {
    fn(slots_[record->out[i]].id, record->out_state[i]);
  }
}

void Graph::ForEachInEdge(VertexId dst,
                          const std::function<void(VertexId)>& fn) const {
  const VertexRecord* record = Find(dst);
  if (record == nullptr) return;
  for (Slot src : record->in) fn(slots_[src].id);
}

void Graph::ForEachEdge(const std::function<void(VertexId, VertexId,
                                                 const std::string&)>& fn)
    const {
  for (const VertexRecord& record : slots_) {
    for (size_t i = 0; i < record.out.size(); ++i) {
      fn(record.id, slots_[record.out[i]].id, record.out_state[i]);
    }
  }
}

}  // namespace graphtides
