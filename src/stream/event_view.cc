#include "stream/event_view.h"

#include <cstring>

#include "common/string_util.h"

namespace graphtides {

namespace {

constexpr char kNulByte[] = "NUL byte in CSV input";

/// Reads a vertex id "17" or an edge id "3-4" (its source ends at the
/// first '-') at `p` into *v. Returns the byte after it, or nullptr if
/// none is there.
const char* ReadId(const char* p, const char* end, bool edge, EventView* v) {
  if (!edge) return ReadUint64(p, end, &v->vertex);
  p = ReadUint64(p, end, &v->edge.src);
  if (p == nullptr || p == end || *p != '-') return nullptr;
  return ReadUint64(p + 1, end, &v->edge.dst);
}

/// The ParseError for an id field that does not hold exactly one id.
Status IdError(std::string_view id, bool edge) {
  if (!edge) return string_util_internal::NotAnUnsignedInteger(id);
  const size_t dash = id.find('-');
  if (dash == std::string_view::npos) {
    return Status::ParseError("edge id missing '-': '" + std::string(id) +
                              "'");
  }
  const std::string_view src = id.substr(0, dash);
  return string_util_internal::NotAnUnsignedInteger(
      ParseUint64(src).ok() ? id.substr(dash + 1) : src);
}

/// \brief One left-to-right walk over the fields of a trimmed line.
///
/// A field ends at the next ',' outside quotes or at the end of the line;
/// a field that starts with '"' is quoted, and "" inside it is one '"'.
/// Each byte is scanned once: unquoted bytes above ',' (letters, digits,
/// '-', braces) pass a single compare, and a quoted field is copied into
/// the scratch buffer as it is unescaped. A CSV error stops the walk;
/// Error() reports it, or the NUL byte that takes precedence over every
/// other error.
class LineWalk {
 public:
  LineWalk(std::string_view line, std::string* scratch)
      : begin_(line.data()),
        p_(begin_),
        end_(begin_ + line.size()),
        scratch_(scratch) {}

  /// Scans the field at the cursor into *field and leaves the cursor on
  /// the ',' after it or at the end of the line.
  bool Field(std::string_view* field) {
    if (p_ < end_ && *p_ == '"') return Quoted(field);
    const char* p = p_;
    for (; p < end_; ++p) {
      if (static_cast<unsigned char>(*p) > ',') continue;
      if (*p == ',') break;
      if (*p == '"') return Fail("unexpected quote inside unquoted field");
      if (*p == '\0') return Fail(kNulByte);
    }
    *field = std::string_view(p_, static_cast<size_t>(p - p_));
    p_ = p;
    return true;
  }

  /// Steps over the ',' that starts another field; false at the end.
  bool Next() {
    if (p_ == end_) return false;
    ++p_;
    return true;
  }

  Status Error() const {
    const size_t size = static_cast<size_t>(end_ - begin_);
    if (std::memchr(begin_, '\0', size) != nullptr) {
      return Status::ParseError(kNulByte);
    }
    return Status::ParseError(error_);
  }

 private:
  bool Fail(const char* message) {
    error_ = message;
    return false;
  }

  /// The cursor is on the opening quote. The content is unescaped into the
  /// scratch buffer after what it holds; unescaped text is never longer
  /// than the line, so growing the buffer to the line's length never moves
  /// an earlier field's view.
  bool Quoted(std::string_view* field) {
    const size_t used = scratch_->size();
    scratch_->resize(static_cast<size_t>(end_ - begin_));
    char* const first = scratch_->data() + used;
    char* out = first;
    const char* p = p_ + 1;
    while (true) {
      if (p == end_) return Fail("unterminated quoted field");
      if (static_cast<unsigned char>(*p) <= '"') {
        if (*p == '"') {
          if (p + 1 == end_ || p[1] != '"') break;
          ++p;  // the second quote of the pair is the one kept
        } else if (*p == '\0') {
          return Fail(kNulByte);
        }
      }
      *out++ = *p++;
    }
    *field = std::string_view(first, static_cast<size_t>(out - first));
    scratch_->resize(static_cast<size_t>(out - scratch_->data()));
    p_ = p + 1;  // past the closing quote, which must end the field
    if (p_ < end_ && *p_ != ',') return Fail("characters after closing quote");
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  std::string* const scratch_;
  const char* error_ = "";
};

}  // namespace

Event EventView::Materialize() const {
  Event e;
  e.type = type;
  e.vertex = vertex;
  e.edge = edge;
  e.payload = std::string(payload);
  e.rate_factor = rate_factor;
  e.pause = pause;
  return e;
}

void EventView::AppendLine(std::string* out) const {
  event_internal::AppendEventFields(type, vertex, edge, payload, rate_factor,
                                    pause, out);
  out->push_back('\n');
}

Result<EventView> ParseEventLineView(std::string_view line,
                                     std::string* scratch) {
  line = TrimWhitespace(line);
  if (line.empty() || line.front() == '#') {
    return Status::NotFound("blank or comment line");
  }
  scratch->clear();

  // Walk every field first: a CSV error anywhere outranks the field count,
  // which outranks the type, which outranks the id and the payload.
  LineWalk walk(line, scratch);
  std::string_view fields[3];
  size_t count = 0;
  do {
    std::string_view field;
    if (!walk.Field(&field)) return walk.Error();
    if (count < 3) fields[count] = field;
    ++count;
  } while (walk.Next());
  if (count != 3) {
    return Status::ParseError("expected 3 fields, got " +
                              std::to_string(count));
  }
  const auto [name, id, payload] = fields;
  const std::optional<EventType> named = EventTypeFromName(name);
  if (!named.has_value()) {
    return Status::ParseError("unknown command: '" + std::string(name) + "'");
  }

  EventView v;
  if (IsGraphOp(*named)) {
    const bool edge = IsEdgeOp(*named);
    const char* const end = id.data() + id.size();
    if (ReadId(id.data(), end, edge, &v) != end) return IdError(id, edge);
  }
  v.type = *named;
  switch (*named) {
    case EventType::kSetRate: {
      GT_ASSIGN_OR_RETURN(v.rate_factor, ParseDouble(payload));
      if (v.rate_factor <= 0.0) {
        return Status::ParseError("rate factor must be positive");
      }
      break;
    }
    case EventType::kPause: {
      GT_ASSIGN_OR_RETURN(const int64_t ms, ParseInt64(payload));
      if (ms < 0) return Status::ParseError("pause must be non-negative");
      v.pause = Duration::FromMillis(ms);
      break;
    }
    default:  // graph ops and markers carry the payload
      v.payload = payload;
      break;
  }
  return v;
}

Result<Event> ParseEventLine(std::string_view line) {
  std::string scratch;
  GT_ASSIGN_OR_RETURN(const EventView view, ParseEventLineView(line, &scratch));
  return view.Materialize();
}

}  // namespace graphtides
