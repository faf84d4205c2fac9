#include "stream/event.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>

namespace graphtides {

Event Event::AddVertex(VertexId id, std::string state) {
  Event e;
  e.type = EventType::kAddVertex;
  e.vertex = id;
  e.payload = std::move(state);
  return e;
}

Event Event::RemoveVertex(VertexId id) {
  Event e;
  e.type = EventType::kRemoveVertex;
  e.vertex = id;
  return e;
}

Event Event::UpdateVertex(VertexId id, std::string state) {
  Event e;
  e.type = EventType::kUpdateVertex;
  e.vertex = id;
  e.payload = std::move(state);
  return e;
}

Event Event::AddEdge(VertexId src, VertexId dst, std::string state) {
  Event e;
  e.type = EventType::kAddEdge;
  e.edge = {src, dst};
  e.payload = std::move(state);
  return e;
}

Event Event::RemoveEdge(VertexId src, VertexId dst) {
  Event e;
  e.type = EventType::kRemoveEdge;
  e.edge = {src, dst};
  return e;
}

Event Event::UpdateEdge(VertexId src, VertexId dst, std::string state) {
  Event e;
  e.type = EventType::kUpdateEdge;
  e.edge = {src, dst};
  e.payload = std::move(state);
  return e;
}

Event Event::Marker(std::string label) {
  Event e;
  e.type = EventType::kMarker;
  e.payload = std::move(label);
  return e;
}

Event Event::SetRate(double factor) {
  Event e;
  e.type = EventType::kSetRate;
  e.rate_factor = factor;
  return e;
}

Event Event::Pause(Duration duration) {
  Event e;
  e.type = EventType::kPause;
  e.pause = duration;
  return e;
}

bool Event::operator==(const Event& other) const {
  if (type != other.type) return false;
  switch (type) {
    case EventType::kAddVertex:
    case EventType::kUpdateVertex:
      return vertex == other.vertex && payload == other.payload;
    case EventType::kRemoveVertex:
      return vertex == other.vertex;
    case EventType::kAddEdge:
    case EventType::kUpdateEdge:
      return edge == other.edge && payload == other.payload;
    case EventType::kRemoveEdge:
      return edge == other.edge;
    case EventType::kMarker:
      return payload == other.payload;
    case EventType::kSetRate:
      return rate_factor == other.rate_factor;
    case EventType::kPause:
      return pause == other.pause;
  }
  return false;
}

namespace event_internal {

namespace {

void AppendU64(uint64_t value, std::string* out) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out->append(buf, static_cast<size_t>(end - buf));
}

void AppendI64(int64_t value, std::string* out) {
  char buf[21];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  out->append(buf, static_cast<size_t>(end - buf));
}

/// Append-variant of EscapeCsvField (common/csv.cc): identical output
/// bytes, no intermediate string. Escaping copies whole runs between
/// quotes instead of one push_back per character — JSON-ish payloads make
/// quoted fields the common case on the replay serialize path.
void AppendCsvField(std::string_view field, std::string* out) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out->append(field);
    return;
  }
  out->push_back('"');
  size_t start = 0;
  while (true) {
    const size_t q = field.find('"', start);
    if (q == std::string_view::npos) {
      out->append(field.substr(start));
      break;
    }
    out->append(field.substr(start, q - start + 1));  // run incl. the quote
    out->push_back('"');                              // double it
    start = q + 1;
  }
  out->push_back('"');
}

}  // namespace

void AppendEventFields(EventType type, VertexId vertex, const EdgeId& edge,
                       std::string_view payload, double rate_factor,
                       Duration pause, std::string* out) {
  // Fast path for the dominant line shapes: graph ops whose payload needs
  // no CSV quoting. One stack buffer and a single append replace five or
  // six bounds-checked string appends — this is the replay hot loop's
  // serializer, and the appends dominate its cost.
  if (IsGraphOp(type) && payload.size() <= 256 &&
      payload.find_first_of(",\"\n\r") == std::string_view::npos) {
    // Each id gets exactly the room of its longest rendering, so the
    // compiler can bound every write: a type name of at most 13 bytes, two
    // ids, three separators and 256 payload bytes fit in 320.
    constexpr size_t kIdDigits = std::numeric_limits<VertexId>::digits10 + 1;
    char buf[320];
    char* p = buf;
    const std::string_view name = EventTypeName(type);
    std::memcpy(p, name.data(), name.size());
    p += name.size();
    *p++ = ',';
    if (IsEdgeOp(type)) {
      p = std::to_chars(p, p + kIdDigits, edge.src).ptr;
      *p++ = '-';
      p = std::to_chars(p, p + kIdDigits, edge.dst).ptr;
    } else {
      p = std::to_chars(p, p + kIdDigits, vertex).ptr;
    }
    *p++ = ',';
    if (type != EventType::kRemoveVertex && type != EventType::kRemoveEdge) {
      std::memcpy(p, payload.data(), payload.size());
      p += payload.size();
    }
    out->append(buf, static_cast<size_t>(p - buf));
    return;
  }
  out->append(EventTypeName(type));
  out->push_back(',');
  switch (type) {
    case EventType::kAddVertex:
    case EventType::kUpdateVertex:
      AppendU64(vertex, out);
      out->push_back(',');
      AppendCsvField(payload, out);
      break;
    case EventType::kRemoveVertex:
      AppendU64(vertex, out);
      out->push_back(',');
      break;
    case EventType::kAddEdge:
    case EventType::kUpdateEdge:
      AppendU64(edge.src, out);
      out->push_back('-');
      AppendU64(edge.dst, out);
      out->push_back(',');
      AppendCsvField(payload, out);
      break;
    case EventType::kRemoveEdge:
      AppendU64(edge.src, out);
      out->push_back('-');
      AppendU64(edge.dst, out);
      out->push_back(',');
      break;
    case EventType::kMarker:
      out->push_back(',');
      AppendCsvField(payload, out);
      break;
    case EventType::kSetRate: {
      out->push_back(',');
      char buf[32];
      const int len = std::snprintf(buf, sizeof(buf), "%g", rate_factor);
      out->append(buf, static_cast<size_t>(len));
      break;
    }
    case EventType::kPause:
      out->push_back(',');
      AppendI64(pause.millis(), out);
      break;
  }
}

}  // namespace event_internal

std::string Event::ToCsvLine() const {
  std::string out;
  event_internal::AppendEventFields(type, vertex, edge, payload, rate_factor,
                                    pause, &out);
  return out;
}

std::string FormatEventLine(const Event& event) { return event.ToCsvLine(); }

void AppendEventLine(const Event& event, std::string* out) {
  event_internal::AppendEventFields(event.type, event.vertex, event.edge,
                                    event.payload, event.rate_factor,
                                    event.pause, out);
  out->push_back('\n');
}

std::ostream& operator<<(std::ostream& os, const Event& e) {
  return os << e.ToCsvLine();
}

}  // namespace graphtides
