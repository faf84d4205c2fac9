// The batch-arena unit that every stream hand-off between threads carries
// (§5.1 multi-threaded design), and the one hand-off that carries it:
// BatchHandoff moves the generator's engine thread -> GenerateTo caller,
// the replayer's decode thread -> reader, and the reader -> each emitter
// lane. A batch is a vector of fixed-size records whose variable-size
// payload bytes live in one contiguous arena string; recycling batches
// through a return queue keeps the steady state allocation-free.
#ifndef GRAPHTIDES_REPLAYER_EVENT_BATCH_H_
#define GRAPHTIDES_REPLAYER_EVENT_BATCH_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "replayer/spsc_queue.h"
#include "stream/event.h"

namespace graphtides {

/// \brief One event routed through a batch; payload bytes live in the
/// owning batch's arena.
struct EventRecord {
  EventType type = EventType::kAddVertex;
  VertexId vertex = 0;
  EdgeId edge;
  /// Global 0-based sequence number among the stream's graph events (used
  /// by the sharded replayer's DeliverSequenced path; 0 when unused).
  uint64_t seq = 0;
  size_t payload_offset = 0;
  size_t payload_len = 0;
  /// Control fields, carried so a batch can transport a full stream
  /// (markers/controls included), as the generator pipeline requires.
  double rate_factor = 1.0;
  Duration pause;
};

/// \brief A batch of records plus the arena backing their payloads.
struct EventBatch {
  std::vector<EventRecord> records;
  std::string arena;

  /// Sizing heuristic for a fresh batch's arena.
  static constexpr size_t kArenaReserveBytesPerEvent = 32;
  /// Producers should flush a batch early once its arena holds this much
  /// payload, so a batch never grows without bound on pathological
  /// payload sizes.
  static constexpr size_t kMaxArenaBytes = size_t{4} << 20;

  void Reserve(size_t batch_events) {
    records.reserve(batch_events);
    arena.reserve(batch_events * kArenaReserveBytesPerEvent);
  }

  /// Appends one record, copying `payload` into the arena.
  void Append(EventType type, VertexId vertex, const EdgeId& edge,
              std::string_view payload, double rate_factor, Duration pause,
              uint64_t seq = 0) {
    EventRecord record;
    record.type = type;
    record.vertex = vertex;
    record.edge = edge;
    record.seq = seq;
    record.payload_offset = arena.size();
    record.payload_len = payload.size();
    record.rate_factor = rate_factor;
    record.pause = pause;
    arena.append(payload);
    records.push_back(record);
  }

  std::string_view PayloadOf(const EventRecord& record) const {
    return std::string_view(arena).substr(record.payload_offset,
                                          record.payload_len);
  }

  /// True when a producer should hand the batch off (count or arena cap).
  bool Full(size_t batch_events) const {
    return records.size() >= batch_events || arena.size() >= kMaxArenaBytes;
  }

  /// Empties the batch, keeping records/arena capacity for recycling.
  void Clear() {
    records.clear();
    arena.clear();
  }
};

/// \brief Bounded single-producer/single-consumer hand-off of a whole
/// stream in batches of at most kBatchEvents, in stream order. A batch
/// goes over when it is full, or earlier at a Flush(): the sharded
/// replayer flushes each lane at an epoch barrier, with the barrier's
/// token as the batch's last record.
///
/// The constructing thread allocates every batch the hand-off ever uses:
/// kDepth queue slots plus the one the producer fills and the one the
/// consumer drains. They circulate through a recycle queue, so neither
/// thread allocates in steady state and the producer thread grows no heap
/// of its own. The consumer may hold at most one batch at a time (Recycle
/// it before the next Next).
///
/// The consumer waits for a batch by yielding: it is the side a replay's
/// throughput depends on. The producer, once kDepth batches are queued,
/// blocks until the consumer pops one. It is then at least kDepth - 1
/// batches ahead, so its wake-up delay costs the consumer nothing, and a
/// paced replay does not keep a CPU busy with a producer that has filled
/// the queue.
class BatchHandoff {
 public:
  static constexpr size_t kBatchEvents = 1024;
  /// Batches in flight; bounds the read-ahead to about
  /// kDepth * kBatchEvents events.
  static constexpr size_t kDepth = 8;

  BatchHandoff() : full_(kDepth), recycle_(kDepth + 2) {
    current_.Reserve(kBatchEvents);
    for (size_t i = 0; i <= kDepth; ++i) {
      EventBatch batch;
      batch.Reserve(kBatchEvents);
      (void)recycle_.TryPush(std::move(batch));
    }
  }

  /// Producer thread: appends one event (`seq` is its sequence number, see
  /// EventRecord) and hands the batch over once it is full. False once the
  /// consumer has stopped.
  bool Add(EventType type, VertexId vertex, const EdgeId& edge,
           std::string_view payload, double rate_factor, Duration pause,
           uint64_t seq = 0) {
    current_.Append(type, vertex, edge, payload, rate_factor, pause, seq);
    return !current_.Full(kBatchEvents) || HandOver();
  }

  /// Producer thread: hands over the partial batch, if any. False once the
  /// consumer has stopped; the batch then stays with the producer.
  bool Flush() { return current_.records.empty() || HandOver(); }

  /// Producer thread: hands over the partial batch and ends the stream.
  /// `status` is what the consumer reads after the last batch (OK = end of
  /// stream, an error = the entry after the last one handed over failed).
  void Close(Status status = Status::OK()) {
    (void)Flush();
    status_ = std::move(status);
    closed_.store(true, std::memory_order_release);
  }

  /// Consumer thread: the next batch in stream order, waiting for the
  /// producer; nullopt once it has closed and every batch is drained.
  std::optional<EventBatch> Next() {
    for (;;) {
      if (std::optional<EventBatch> batch = full_.TryPop()) {
        pops_.fetch_add(1, std::memory_order_release);
        pops_.notify_one();
        return batch;
      }
      // The producer pushes its last batch before closing, so one more pop
      // after seeing the flag finds anything still queued.
      if (closed_.load(std::memory_order_acquire)) return full_.TryPop();
      std::this_thread::yield();
    }
  }

  /// Consumer thread: returns a drained batch for reuse.
  void Recycle(EventBatch batch) {
    batch.Clear();
    (void)recycle_.TryPush(std::move(batch));
  }

  /// Consumer thread: the producer's next hand-over that finds the queue
  /// full fails instead of waiting; batches already queued stay poppable.
  void Stop() {
    stopped_.store(true, std::memory_order_release);
    pops_.fetch_add(1, std::memory_order_release);
    pops_.notify_one();
  }

  /// Consumer thread, once Next returned nullopt: the close status.
  const Status& status() const { return status_; }

 private:
  /// Producer thread: queues current_ and takes a recycled batch, blocking
  /// while the queue is full; false (current_ untouched) once the consumer
  /// has stopped.
  bool HandOver() {
    for (;;) {
      // Read before the push, so a pop or Stop() after a failed push
      // changes the count and the wait returns.
      const uint32_t pops = pops_.load(std::memory_order_acquire);
      if (full_.TryPush(std::move(current_))) break;
      if (stopped_.load(std::memory_order_acquire)) return false;
      pops_.wait(pops, std::memory_order_acquire);
    }
    // Of the kDepth + 2 batches, at most kDepth are queued and the consumer
    // holds at most one, so the push above leaves one to recycle.
    std::optional<EventBatch> batch = recycle_.TryPop();
    assert(batch.has_value());
    current_ = std::move(*batch);
    return true;
  }

  EventBatch current_;
  SpscQueue<EventBatch> full_;
  SpscQueue<EventBatch> recycle_;
  Status status_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> stopped_{false};
  /// Bumped by every pop and by Stop(); the producer waits on it.
  std::atomic<uint32_t> pops_{0};
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_EVENT_BATCH_H_
