#include "stream/stream_file.h"

#include <sstream>

namespace graphtides {

Status StreamFileReader::Open(const std::string& path) {
  in_.open(path);
  if (!in_.is_open()) {
    return Status::IoError("cannot open stream file: " + path);
  }
  line_number_ = 0;
  return Status::OK();
}

namespace {

enum class LineRead { kLine, kEof, kTooLong };

// Reads up to the next '\n' into *line, never buffering more than max_bytes.
// An over-long line is drained to its newline so the caller can resume at
// the next record. *terminated reports whether a '\n' was actually seen —
// false on the final line of a file cut off mid-record.
LineRead ReadBoundedLine(std::istream& in, std::string* line, size_t max_bytes,
                         bool* terminated) {
  line->clear();
  *terminated = false;
  constexpr int kEofCh = std::char_traits<char>::eof();
  int c;
  while ((c = in.get()) != kEofCh) {
    if (c == '\n') {
      *terminated = true;
      return LineRead::kLine;
    }
    if (line->size() >= max_bytes) {
      while ((c = in.get()) != kEofCh && c != '\n') {
      }
      return LineRead::kTooLong;
    }
    line->push_back(static_cast<char>(c));
  }
  return line->empty() ? LineRead::kEof : LineRead::kLine;
}

}  // namespace

Result<std::optional<Event>> StreamFileReader::Next() {
  std::string line;
  while (true) {
    bool terminated = false;
    const LineRead read =
        ReadBoundedLine(in_, &line, options_.max_line_bytes, &terminated);
    if (read == LineRead::kEof) {
      if (in_.bad()) return Status::IoError("read failure");
      return std::optional<Event>(std::nullopt);
    }
    ++line_number_;
    if (read == LineRead::kTooLong) {
      return Status::ParseError(
                 "line exceeds " + std::to_string(options_.max_line_bytes) +
                 " bytes")
          .WithContext("line " + std::to_string(line_number_));
    }
    Result<Event> parsed = ParseEventLine(line);
    if (parsed.ok()) return std::optional<Event>(std::move(parsed).value());
    if (parsed.status().IsNotFound()) continue;  // blank/comment line
    std::string context = "line " + std::to_string(line_number_);
    if (!terminated) context += " (truncated final record)";
    return parsed.status().WithContext(context);
  }
}

Status StreamFileWriter::Open(const std::string& path) {
  out_.open(path, std::ios::trunc);
  if (!out_.is_open()) {
    return Status::IoError("cannot create stream file: " + path);
  }
  events_written_ = 0;
  return Status::OK();
}

Status StreamFileWriter::Append(const Event& event) {
  line_buf_.clear();
  AppendEventLine(event, &line_buf_);
  out_.write(line_buf_.data(), static_cast<std::streamsize>(line_buf_.size()));
  if (!out_.good()) return Status::IoError("write failure");
  ++events_written_;
  return Status::OK();
}

Status StreamFileWriter::Flush() {
  out_.flush();
  if (!out_.good()) return Status::IoError("flush failure");
  return Status::OK();
}

Status StreamFileWriter::Close() {
  if (out_.is_open()) {
    out_.close();
    if (out_.fail()) return Status::IoError("close failure");
  }
  return Status::OK();
}

Result<std::vector<Event>> ReadStreamFile(const std::string& path) {
  StreamFileReader reader;
  GT_RETURN_NOT_OK(reader.Open(path));
  std::vector<Event> events;
  while (true) {
    GT_ASSIGN_OR_RETURN(std::optional<Event> next, reader.Next());
    if (!next.has_value()) break;
    events.push_back(std::move(*next));
  }
  return events;
}

Status WriteStreamFile(const std::string& path,
                       const std::vector<Event>& events) {
  StreamFileWriter writer;
  GT_RETURN_NOT_OK(writer.Open(path));
  for (const Event& e : events) {
    GT_RETURN_NOT_OK(writer.Append(e));
  }
  return writer.Close();
}

Result<std::vector<Event>> ParseStreamText(const std::string& text) {
  std::vector<Event> events;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    Result<Event> parsed = ParseEventLine(line);
    if (parsed.ok()) {
      events.push_back(std::move(parsed).value());
      continue;
    }
    if (parsed.status().IsNotFound()) continue;
    return parsed.status().WithContext("line " + std::to_string(line_number));
  }
  return events;
}

std::string FormatStreamText(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    AppendEventLine(e, &out);
  }
  return out;
}

}  // namespace graphtides
