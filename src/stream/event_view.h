// The stream format's parser.
//
// ParseEventLineView parses one stream-file line into an EventView whose
// payload is a string_view into the line (or, when the field is quoted,
// into a caller-owned scratch buffer), so the replayer's steady-state
// decode loop allocates nothing (§5.1). It walks the line once, field by
// field, unescaping quoted fields into the scratch buffer in the same byte
// loop, then reads the command and the id from their fields' text.
// ParseEventLine (stream/event.h) is this parser plus a copy of the
// payload, so the format has one grammar; tests/stream/event_fuzz_test.cc
// holds it to an oracle built on the general CSV splitter, status string
// for status string.
#ifndef GRAPHTIDES_STREAM_EVENT_VIEW_H_
#define GRAPHTIDES_STREAM_EVENT_VIEW_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "stream/event.h"

namespace graphtides {

/// \brief One parsed stream entry whose payload borrows from the input
/// line or from the scratch buffer passed to ParseEventLineView.
///
/// Valid only as long as both the line and the scratch buffer are alive
/// and unmodified. Materialize() copies into an owned Event.
struct EventView {
  EventType type = EventType::kAddVertex;
  VertexId vertex = 0;
  EdgeId edge;
  std::string_view payload;
  double rate_factor = 1.0;
  Duration pause;

  Event Materialize() const;

  /// Appends the canonical stream-file rendering of this view (identical
  /// bytes to Materialize().ToCsvLine()) plus a trailing '\n' to *out.
  /// Appending instead of returning keeps batched serialization
  /// allocation-free once *out has warmed up its capacity.
  void AppendLine(std::string* out) const;
};

/// \brief Parses one stream-file line without allocating in steady state.
///
/// Blank and comment ('#') lines yield NotFound, malformed lines
/// ParseError: a NUL byte anywhere first, then the first CSV error in line
/// order, then a field count other than 3, an unknown command, a malformed
/// id, and a bad SET_RATE / PAUSE value. `scratch` backs CSV unescaping of
/// quoted fields and is cleared on every call; views into it stay valid
/// until the next call. Reusing one scratch string across calls makes
/// repeated parsing allocation-free once its capacity has grown to the
/// longest line seen.
Result<EventView> ParseEventLineView(std::string_view line,
                                     std::string* scratch);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_EVENT_VIEW_H_
