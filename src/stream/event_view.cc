#include "stream/event_view.h"

#include <cstring>

#include "common/string_util.h"

namespace graphtides {

namespace {

/// Scans one CSV field of `line` starting at *i, honoring the same quoting
/// rules as ParseCsvLine (common/csv.cc). Field ends and quotes are found
/// by memchr; `has_quote` says whether the line holds any '"' at all, so a
/// line without one never searches for quotes per field. On success *field
/// views either into `line` (unquoted, or quoted without escapes) or into
/// `scratch` (quoted with doubled quotes, unescaped by copying the runs
/// between them — the caller must have reserved enough scratch capacity
/// that appends cannot reallocate), and *i is left on the terminating ','
/// or at end of line.
Status ScanCsvField(std::string_view line, bool has_quote, size_t* i,
                    std::string* scratch, std::string_view* field) {
  const char* const begin = line.data();
  const char* const end = begin + line.size();
  const char* p = begin + *i;
  if (p < end && *p == '"') {
    const char* const content = ++p;
    const char* run = content;  // start of the bytes not yet unescaped
    size_t unescaped = std::string::npos;  // offset into scratch, if any
    while (true) {
      const char* q =
          static_cast<const char*>(std::memchr(p, '"', end - p));
      if (q == nullptr) return Status::ParseError("unterminated quoted field");
      if (q + 1 < end && q[1] == '"') {
        if (unescaped == std::string::npos) unescaped = scratch->size();
        scratch->append(run, q + 1 - run);  // the run and one quote
        run = p = q + 2;
        continue;
      }
      if (unescaped == std::string::npos) {
        *field = std::string_view(content, q - content);
      } else {
        scratch->append(run, q - run);
        *field = std::string_view(*scratch).substr(unescaped);
      }
      p = q + 1;  // past the closing quote
      break;
    }
    if (p < end && *p != ',') {
      return Status::ParseError("characters after closing quote");
    }
    *i = p - begin;
    return Status::OK();
  }
  const char* comma = static_cast<const char*>(std::memchr(p, ',', end - p));
  if (comma == nullptr) comma = end;
  if (has_quote && std::memchr(p, '"', comma - p) != nullptr) {
    return Status::ParseError("unexpected quote inside unquoted field");
  }
  *field = std::string_view(p, comma - p);
  *i = comma - begin;
  return Status::OK();
}

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
  const std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    return Status::NotFound("blank or comment line");
  }
  if (trimmed.find('\0') != std::string_view::npos) {
    return Status::ParseError("NUL byte in CSV input");
  }
  scratch->clear();
  const bool has_quote =
      std::memchr(trimmed.data(), '"', trimmed.size()) != nullptr;
  // Unescaped content is never longer than the input, so one reservation
  // guarantees field views into scratch survive later appends.
  if (has_quote && scratch->capacity() < trimmed.size()) {
    scratch->reserve(trimmed.size());
  }

  std::string_view fields[3];
  size_t count = 0;
  size_t i = 0;
  while (true) {
    std::string_view field;
    GT_RETURN_NOT_OK(ScanCsvField(trimmed, has_quote, &i, scratch, &field));
    if (count < 3) fields[count] = field;
    ++count;
    if (i >= trimmed.size()) break;
    ++i;  // skip the comma
  }
  if (count != 3) {
    return Status::ParseError("expected 3 fields, got " +
                              std::to_string(count));
  }
  GT_ASSIGN_OR_RETURN(const EventType type, EventTypeFromName(fields[0]));

  EventView v;
  v.type = type;
  switch (type) {
    case EventType::kAddVertex:
    case EventType::kUpdateVertex:
    case EventType::kRemoveVertex: {
      GT_ASSIGN_OR_RETURN(v.vertex, ParseUint64(fields[1]));
      v.payload = fields[2];
      break;
    }
    case EventType::kAddEdge:
    case EventType::kUpdateEdge:
    case EventType::kRemoveEdge: {
      GT_ASSIGN_OR_RETURN(v.edge, ParseEdgeId(fields[1]));
      v.payload = fields[2];
      break;
    }
    case EventType::kMarker:
      v.payload = fields[2];
      break;
    case EventType::kSetRate: {
      GT_ASSIGN_OR_RETURN(v.rate_factor, ParseDouble(fields[2]));
      if (v.rate_factor <= 0.0) {
        return Status::ParseError("rate factor must be positive");
      }
      break;
    }
    case EventType::kPause: {
      GT_ASSIGN_OR_RETURN(const int64_t ms, ParseInt64(fields[2]));
      if (ms < 0) return Status::ParseError("pause must be non-negative");
      v.pause = Duration::FromMillis(ms);
      break;
    }
  }
  return v;
}

}  // namespace graphtides
