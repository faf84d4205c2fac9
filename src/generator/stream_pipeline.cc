#include "generator/stream_pipeline.h"

namespace graphtides {

namespace {

/// Buffered bytes that trigger one fwrite.
constexpr size_t kWriteBytes = size_t{256} << 10;

}  // namespace

PipelinedWriterConsumer::PipelinedWriterConsumer(FILE* out) : out_(out) {
  // One line past the threshold at most; long payloads just grow it.
  buffer_.reserve(kWriteBytes + 512);
}

Status PipelinedWriterConsumer::WriteBuffer() {
  if (!status_.ok() || buffer_.empty()) return status_;
  if (std::fwrite(buffer_.data(), 1, buffer_.size(), out_) != buffer_.size()) {
    status_ = Status::IoError("stream write failed");
    return status_;
  }
  bytes_written_ += buffer_.size();
  events_written_ += buffered_events_;
  buffer_.clear();
  buffered_events_ = 0;
  return status_;
}

Status PipelinedWriterConsumer::Consume(Event&& event) {
  GT_RETURN_NOT_OK(status_);
  AppendEventLine(event, &buffer_);
  ++buffered_events_;
  if (buffer_.size() >= kWriteBytes) return WriteBuffer();
  return Status::OK();
}

Status PipelinedWriterConsumer::Finish() {
  GT_RETURN_NOT_OK(WriteBuffer());
  if (std::fflush(out_) != 0) status_ = Status::IoError("stream flush failed");
  return status_;
}

}  // namespace graphtides
