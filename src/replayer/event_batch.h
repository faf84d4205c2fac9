// The batch-arena unit shared by the stream producers and consumers that
// hand events between threads: the sharded replayer's reader -> lane queues
// and the generator's engine thread -> GenerateTo caller (§5.1
// multi-threaded design). A batch is a vector of fixed-size records whose variable-size
// payload bytes live in one contiguous arena string; recycling batches
// through a return queue keeps the steady state allocation-free.
#ifndef GRAPHTIDES_REPLAYER_EVENT_BATCH_H_
#define GRAPHTIDES_REPLAYER_EVENT_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
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

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_EVENT_BATCH_H_
