// EventConsumer: the incremental emission interface of the stream
// generator. StreamGenerator::GenerateTo hands each event to a consumer
// shortly after the engine thread produces it, so generation is
// constant-memory with respect to the stream length — the out-of-core
// counterpart of the legacy Generate() that materializes a GeneratedStream
// vector (through CollectingConsumer).
#ifndef GRAPHTIDES_GENERATOR_EVENT_CONSUMER_H_
#define GRAPHTIDES_GENERATOR_EVENT_CONSUMER_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "stream/event.h"

namespace graphtides {

/// \brief Destination for generated events, called in stream order on the
/// thread that called GenerateTo (never on the engine thread). A non-OK
/// Status aborts generation with that status.
class EventConsumer {
 public:
  virtual ~EventConsumer() = default;

  /// Accepts the next stream entry (graph op, marker, or control).
  virtual Status Consume(Event&& event) = 0;

  /// Called once after the last event of a successful generation. Flushes
  /// buffered output; errors surface as the generation result.
  virtual Status Finish() { return Status::OK(); }
};

/// \brief Collects events into a caller-owned vector (the legacy in-memory
/// path).
class CollectingConsumer final : public EventConsumer {
 public:
  explicit CollectingConsumer(std::vector<Event>* out) : out_(out) {}

  Status Consume(Event&& event) override {
    out_->push_back(std::move(event));
    return Status::OK();
  }

 private:
  std::vector<Event>* out_;
};

/// \brief Invokes a user function per event (tests, in-process pipelines).
class CallbackConsumer final : public EventConsumer {
 public:
  explicit CallbackConsumer(std::function<Status(Event&&)> fn)
      : fn_(std::move(fn)) {}

  Status Consume(Event&& event) override { return fn_(std::move(event)); }

 private:
  std::function<Status(Event&&)> fn_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_GENERATOR_EVENT_CONSUMER_H_
