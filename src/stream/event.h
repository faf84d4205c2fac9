// The GraphTides event model (§3.1, §4.2).
//
// A graph stream is an ordered sequence of entries of three classes:
//   * graph-changing events — the six localized operations
//     add/remove/update x vertex/edge,
//   * marker events — flags for specific points in the stream, correlated
//     with wall-clock timestamps during analysis,
//   * control events — replayer directives: a rate (speed-up) factor and a
//     pause of fixed duration.
#ifndef GRAPHTIDES_STREAM_EVENT_H_
#define GRAPHTIDES_STREAM_EVENT_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"

namespace graphtides {

/// Vertices are identified by a unique numeric ID (§3.2 Graph Types).
using VertexId = uint64_t;

/// \brief Edge identity: the ordered (source, destination) pair.
///
/// The stream format renders this as "src-dst" (§4.2). Graphs are directed
/// without multi-edges or self-loops, so the pair is a unique key.
struct EdgeId {
  VertexId src = 0;
  VertexId dst = 0;

  constexpr auto operator<=>(const EdgeId&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const EdgeId& e) {
  return os << e.src << "-" << e.dst;
}

/// Entry types appearing in a graph stream file.
enum class EventType : uint8_t {
  // Graph-changing events.
  kAddVertex = 0,
  kRemoveVertex = 1,
  kUpdateVertex = 2,
  kAddEdge = 3,
  kRemoveEdge = 4,
  kUpdateEdge = 5,
  // Marker events (§4.2).
  kMarker = 6,
  // Control events (§4.2): SET_RATE carries a speed-up factor relative to
  // the replayer's base rate (1.0 = base); PAUSE suspends emission.
  kSetRate = 7,
  kPause = 8,
};

/// Stream-format command names (Table 3 vocabulary).
constexpr std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kAddVertex:
      return "CREATE_VERTEX";
    case EventType::kRemoveVertex:
      return "REMOVE_VERTEX";
    case EventType::kUpdateVertex:
      return "UPDATE_VERTEX";
    case EventType::kAddEdge:
      return "CREATE_EDGE";
    case EventType::kRemoveEdge:
      return "REMOVE_EDGE";
    case EventType::kUpdateEdge:
      return "UPDATE_EDGE";
    case EventType::kMarker:
      return "MARKER";
    case EventType::kSetRate:
      return "SET_RATE";
    case EventType::kPause:
      return "PAUSE";
  }
  return "UNKNOWN";
}

namespace event_internal {
/// `type` if the N bytes of `name` spell its name. N is a constant, so the
/// compare compiles to a few word loads instead of a memcmp call.
template <size_t N>
std::optional<EventType> IfNamed(std::string_view name, EventType type) {
  if (std::memcmp(name.data(), EventTypeName(type).data(), N) != 0) {
    return std::nullopt;
  }
  return type;
}
}  // namespace event_internal

/// \brief Inverse of EventTypeName: the type named `name`, or nullopt for
/// an unknown command.
///
/// Inline because the replay parse path calls it once per line: length
/// and first letter leave at most one candidate, so a name costs one
/// compare.
inline std::optional<EventType> EventTypeFromName(std::string_view name) {
  using event_internal::IfNamed;
  const char first = name.empty() ? '\0' : name[0];
  switch (name.size()) {
    case 13:
      return IfNamed<13>(name, first == 'C'   ? EventType::kAddVertex
                               : first == 'R' ? EventType::kRemoveVertex
                                              : EventType::kUpdateVertex);
    case 11:
      return IfNamed<11>(name, first == 'C'   ? EventType::kAddEdge
                               : first == 'R' ? EventType::kRemoveEdge
                                              : EventType::kUpdateEdge);
    case 6:
      return IfNamed<6>(name, EventType::kMarker);
    case 8:
      return IfNamed<8>(name, EventType::kSetRate);
    case 5:
      return IfNamed<5>(name, EventType::kPause);
  }
  return std::nullopt;
}

// Classification, inline because the replay hot path (parsing, lane
// routing) asks once per event.
constexpr bool IsGraphOp(EventType type) {
  return static_cast<uint8_t>(type) <=
         static_cast<uint8_t>(EventType::kUpdateEdge);
}
/// Add/remove vertex/edge — changes the topology.
constexpr bool IsTopologyChange(EventType type) {
  return type == EventType::kAddVertex || type == EventType::kRemoveVertex ||
         type == EventType::kAddEdge || type == EventType::kRemoveEdge;
}
/// Update vertex/edge — changes only entity state.
constexpr bool IsStateUpdate(EventType type) {
  return type == EventType::kUpdateVertex || type == EventType::kUpdateEdge;
}
constexpr bool IsVertexOp(EventType type) {
  return type == EventType::kAddVertex || type == EventType::kRemoveVertex ||
         type == EventType::kUpdateVertex;
}
constexpr bool IsEdgeOp(EventType type) {
  return type == EventType::kAddEdge || type == EventType::kRemoveEdge ||
         type == EventType::kUpdateEdge;
}
constexpr bool IsControl(EventType type) {
  return type == EventType::kSetRate || type == EventType::kPause;
}
constexpr bool IsAddOp(EventType type) {
  return type == EventType::kAddVertex || type == EventType::kAddEdge;
}
constexpr bool IsRemoveOp(EventType type) {
  return type == EventType::kRemoveVertex || type == EventType::kRemoveEdge;
}

/// \brief One entry of a graph stream.
///
/// The fields used depend on `type`:
///  * vertex ops: `vertex`, and `payload` as the state string (adds/updates),
///  * edge ops: `edge`, and `payload` as the state string (adds/updates),
///  * kMarker: `payload` is the marker label,
///  * kSetRate: `rate_factor`,
///  * kPause: `pause`.
struct Event {
  EventType type = EventType::kAddVertex;
  VertexId vertex = 0;
  EdgeId edge;
  std::string payload;
  double rate_factor = 1.0;
  Duration pause;

  static Event AddVertex(VertexId id, std::string state = "");
  static Event RemoveVertex(VertexId id);
  static Event UpdateVertex(VertexId id, std::string state);
  static Event AddEdge(VertexId src, VertexId dst, std::string state = "");
  static Event RemoveEdge(VertexId src, VertexId dst);
  static Event UpdateEdge(VertexId src, VertexId dst, std::string state);
  static Event Marker(std::string label);
  static Event SetRate(double factor);
  static Event Pause(Duration duration);

  bool operator==(const Event& other) const;

  /// Renders the stream-file line for this event (no newline).
  std::string ToCsvLine() const;
};

/// \brief Parses one stream-file line. Empty lines and lines starting with
/// '#' yield NotFound (callers skip those); malformed lines yield ParseError.
///
/// ParseEventLineView (stream/event_view.h) plus a copy of the payload:
/// the stream format has one parser.
Result<Event> ParseEventLine(std::string_view line);

/// Renders the canonical stream-file line (no newline); identical bytes to
/// `event.ToCsvLine()`. Inverse of ParseEventLine for every valid Event.
std::string FormatEventLine(const Event& event);

/// \brief Appends the canonical stream-file line for `event` plus a trailing
/// '\n' to *out.
///
/// Formats numeric fields with std::to_chars directly into *out, so a warm
/// reused buffer makes repeated serialization allocation-free — the hot path
/// shared by the replayer transports and the generator's CSV writer.
void AppendEventLine(const Event& event, std::string* out);

namespace event_internal {
/// Field-level serializer shared by Event::ToCsvLine, AppendEventLine and
/// EventView::AppendLine: appends the canonical line (no newline) to *out.
void AppendEventFields(EventType type, VertexId vertex, const EdgeId& edge,
                       std::string_view payload, double rate_factor,
                       Duration pause, std::string* out);
}  // namespace event_internal

std::ostream& operator<<(std::ostream& os, const Event& e);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_EVENT_H_
