// Reading and writing graph stream files (§4.2): plain CSV, one event per
// line. Blank lines and '#' comments are permitted and skipped on read.
#ifndef GRAPHTIDES_STREAM_STREAM_FILE_H_
#define GRAPHTIDES_STREAM_STREAM_FILE_H_

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "stream/event.h"

namespace graphtides {

struct StreamFileReaderOptions {
  /// Lines longer than this are rejected with ParseError instead of being
  /// buffered whole — a missing newline in a giant corrupt file must not
  /// balloon into an unbounded allocation.
  size_t max_line_bytes = 1 << 20;
};

/// \brief Sequential reader over a graph stream file.
///
/// Usage:
///   StreamFileReader reader;
///   GT_RETURN_NOT_OK(reader.Open(path));
///   while (true) {
///     auto next = reader.Next();
///     if (!next.ok()) return next.status();
///     if (!next->has_value()) break;  // end of stream
///     Process(**next);
///   }
class StreamFileReader {
 public:
  explicit StreamFileReader(StreamFileReaderOptions options = {})
      : options_(options) {}

  Status Open(const std::string& path);

  /// Next event, std::nullopt at end of file, or a ParseError annotated with
  /// the 1-based line number. An unterminated final line that fails to parse
  /// is flagged as a truncated final record. After a ParseError the reader
  /// is positioned at the next line, so callers may keep reading to collect
  /// every malformed line.
  Result<std::optional<Event>> Next();

  /// 1-based number of the last line consumed.
  size_t line_number() const { return line_number_; }

 private:
  StreamFileReaderOptions options_;
  std::ifstream in_;
  size_t line_number_ = 0;
};

/// \brief Sequential writer producing a graph stream file.
class StreamFileWriter {
 public:
  Status Open(const std::string& path);

  Status Append(const Event& event);
  Status Flush();
  Status Close();

  size_t events_written() const { return events_written_; }

 private:
  std::ofstream out_;
  std::string line_buf_;  // reused across Append calls
  size_t events_written_ = 0;
};

/// Loads a whole stream file into memory.
Result<std::vector<Event>> ReadStreamFile(const std::string& path);

/// Writes `events` to `path`, replacing any existing file.
Status WriteStreamFile(const std::string& path,
                       const std::vector<Event>& events);

/// Parses a stream held in a string (one event per line), for tests and
/// in-process pipelines.
Result<std::vector<Event>> ParseStreamText(const std::string& text);

/// Renders events as stream-file text.
std::string FormatStreamText(const std::vector<Event>& events);

}  // namespace graphtides

#endif  // GRAPHTIDES_STREAM_STREAM_FILE_H_
