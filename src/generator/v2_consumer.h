// V2WriterConsumer: the gt-stream-v2 mirror of PipelinedWriterConsumer —
// plugs the binary block writer (stream/v2_writer.h) into the generator's
// EventConsumer pipeline, so `gt_generate --format v2` streams sealed
// blocks with the same bounded-memory contract as the CSV path. Like every
// consumer it runs on the thread that called GenerateTo, overlapping the
// generator's engine thread; the writer batches records per block and
// issues one fwrite per sealed block.
#ifndef GRAPHTIDES_GENERATOR_V2_CONSUMER_H_
#define GRAPHTIDES_GENERATOR_V2_CONSUMER_H_

#include <cstdio>

#include "common/status.h"
#include "generator/event_consumer.h"
#include "stream/v2_writer.h"

namespace graphtides {

/// \brief EventConsumer that streams gt-stream-v2 blocks to a borrowed
/// FILE* (e.g. stdout). Finish() seals the partial block and writes the
/// mandatory end-of-stream sentinel; without it the output is rejected as
/// truncated by every v2 reader.
class V2WriterConsumer final : public EventConsumer {
 public:
  explicit V2WriterConsumer(std::FILE* out) {
    attach_status_ = writer_.Attach(out);
  }

  Status Consume(Event&& event) override {
    GT_RETURN_NOT_OK(attach_status_);
    return writer_.AppendFields(event.type, event.vertex, event.edge,
                                event.payload, event.rate_factor, event.pause);
  }

  Status Finish() override {
    GT_RETURN_NOT_OK(attach_status_);
    return writer_.Finish();
  }

  uint64_t bytes_written() const { return writer_.bytes_written(); }
  uint64_t events_written() const { return writer_.events_written(); }

 private:
  Status attach_status_;
  V2FileWriter writer_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GENERATOR_V2_CONSUMER_H_
