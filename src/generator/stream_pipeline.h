// Buffered CSV stream writer: the CSV end of the generator pipeline.
//
// StreamGenerator::GenerateTo runs the engine on its own thread and feeds
// this consumer on the calling thread, so serialization and I/O already
// overlap generation (§5.1's decoupled multi-threaded design). The writer
// itself is plain: each event is rendered with the shared
// std::to_chars-based formatter into one reused buffer, and the buffer goes
// out in one fwrite per ~256 KB.
#ifndef GRAPHTIDES_GENERATOR_STREAM_PIPELINE_H_
#define GRAPHTIDES_GENERATOR_STREAM_PIPELINE_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"
#include "generator/event_consumer.h"

namespace graphtides {

/// \brief EventConsumer that streams serialized CSV lines to a FILE*.
///
/// The FILE* is borrowed, not owned; Finish() writes the buffered tail and
/// flushes it. The first write error is returned from that Consume (or
/// from Finish) and from every call after it, which aborts generation
/// early. Lines still buffered when the writer is destroyed without
/// Finish() are dropped.
class PipelinedWriterConsumer final : public EventConsumer {
 public:
  explicit PipelinedWriterConsumer(FILE* out);

  PipelinedWriterConsumer(const PipelinedWriterConsumer&) = delete;
  PipelinedWriterConsumer& operator=(const PipelinedWriterConsumer&) = delete;

  Status Consume(Event&& event) override;

  /// Writes the buffered lines and flushes the FILE*.
  Status Finish() override;

  /// Bytes handed to fwrite so far (exact after Finish()).
  uint64_t bytes_written() const { return bytes_written_; }
  /// Events whose lines were handed to fwrite (exact after Finish()).
  uint64_t events_written() const { return events_written_; }

 private:
  /// Hands the buffer to fwrite and empties it.
  Status WriteBuffer();

  FILE* out_;
  std::string buffer_;
  uint64_t buffered_events_ = 0;
  Status status_;
  uint64_t bytes_written_ = 0;
  uint64_t events_written_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GENERATOR_STREAM_PIPELINE_H_
