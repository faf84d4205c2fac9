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
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/result.h"
#include "common/string_util.h"

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
/// The ParseError of EventTypeFromName for an unknown command.
Status UnknownCommand(std::string_view name);
}  // namespace event_internal

/// \brief Inverse of EventTypeName; ParseError for unknown commands.
///
/// Inline because the replay parse path calls it once per line: length
/// and first letter leave at most one candidate, so a name costs one
/// memcmp.
inline Result<EventType> EventTypeFromName(std::string_view name) {
  std::optional<EventType> candidate;
  switch (name.size()) {
    case 13:  // CREATE_VERTEX, REMOVE_VERTEX, UPDATE_VERTEX
    case 11: {  // CREATE_EDGE, REMOVE_EDGE, UPDATE_EDGE
      const bool vertex = name.size() == 13;
      if (name[0] == 'C') {
        candidate = vertex ? EventType::kAddVertex : EventType::kAddEdge;
      } else if (name[0] == 'R') {
        candidate = vertex ? EventType::kRemoveVertex : EventType::kRemoveEdge;
      } else if (name[0] == 'U') {
        candidate = vertex ? EventType::kUpdateVertex : EventType::kUpdateEdge;
      }
      break;
    }
    case 6:
      candidate = EventType::kMarker;
      break;
    case 8:
      candidate = EventType::kSetRate;
      break;
    case 5:
      candidate = EventType::kPause;
      break;
  }
  if (candidate.has_value() && EventTypeName(*candidate) == name) {
    return *candidate;
  }
  return event_internal::UnknownCommand(name);
}

bool IsGraphOp(EventType type);
/// Add/remove vertex/edge — changes the topology.
bool IsTopologyChange(EventType type);
/// Update vertex/edge — changes only entity state.
bool IsStateUpdate(EventType type);
bool IsVertexOp(EventType type);
bool IsEdgeOp(EventType type);
bool IsControl(EventType type);
bool IsAddOp(EventType type);
bool IsRemoveOp(EventType type);

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

namespace event_internal {
/// The ParseError of ParseEdgeId for an id without a '-'.
Status EdgeIdMissingDash(std::string_view s);
}  // namespace event_internal

/// \brief Parses a "src-dst" edge id; ParseError if malformed.
///
/// Inline, like ParseUint64, because the replay parse path calls it once
/// per edge line.
inline Result<EdgeId> ParseEdgeId(std::string_view s) {
  const size_t dash = s.find('-');
  if (dash == std::string_view::npos) {
    return event_internal::EdgeIdMissingDash(s);
  }
  GT_ASSIGN_OR_RETURN(const uint64_t src, ParseUint64(s.substr(0, dash)));
  GT_ASSIGN_OR_RETURN(const uint64_t dst, ParseUint64(s.substr(dash + 1)));
  return EdgeId{src, dst};
}

std::ostream& operator<<(std::ostream& os, const Event& e);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_EVENT_H_
