#include "replayer/sharded_replayer.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/fault_plan.h"
#include "replayer/event_batch.h"
#include "replayer/rate_controller.h"
#include "replayer/spsc_queue.h"
#include "stream/block_reader.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"

namespace graphtides {

namespace {

// splitmix64 finalizer: generator ids are nearly sequential, so a plain
// modulo would stripe entities across lanes in lockstep with the stream's
// own structure; the mix decorrelates them.
uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Lane batches are the shared batch-arena unit (replayer/event_batch.h),
// so the generator's pipelined writer and the sharded reader recycle the
// same structure.
using LaneRecord = EventRecord;
using LaneBatch = EventBatch;

/// Broadcast token: every live lane receives one copy and meets the others
/// at the epoch barrier before anyone emits past it.
struct BarrierCmd {
  enum class Kind : uint8_t { kMarker, kControl, kCheckpoint };
  Kind kind = Kind::kMarker;
  uint64_t epoch = 0;
  /// Global epoch ordinal for marker/control barriers: 1-based count of
  /// markers + honored controls, identical on every process replaying the
  /// stream (and across resumes) — the id the distributed epoch_hook
  /// reports to the coordinator.
  uint64_t global_epoch = 0;
  // kMarker:
  std::string label;
  // kControl:
  EventType control = EventType::kSetRate;
  double rate_factor = 1.0;
  Duration pause;
  // Reader-side accounting at the barrier point (cumulative, including a
  // resume base) for the marker record / checkpoint written at the epoch.
  uint64_t entries_consumed = 0;
  uint64_t events_before = 0;
  uint64_t markers = 0;
  uint64_t controls = 0;
  double factor_at = 1.0;
};

enum class ItemKind : uint8_t { kBatch, kBarrier, kEnd };

struct LaneItem {
  ItemKind kind = ItemKind::kEnd;
  LaneBatch batch;
  BarrierCmd barrier;
};

/// \brief Barrier with a per-phase completion run by the last arriver while
/// the others are parked — the quiescent point where markers are recorded
/// and checkpoints written. A failing lane Drop()s out of every future
/// phase so the healthy lanes never wait for it. Contended only at
/// marker/control/checkpoint epochs, never on the batch hot path.
class EpochBarrier {
 public:
  explicit EpochBarrier(size_t parties) : parties_(parties) {}

  void ArriveAndWait(const std::function<void()>& completion) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t phase = phase_;
    ++arrived_;
    if (arrived_ >= parties_) {
      if (completion) completion();
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return phase_ != phase; });
  }

  /// \brief Removes the caller from all future phases.
  ///
  /// If the drop makes the current phase complete, the phase advances
  /// WITHOUT its completion: a run with a failed lane must not record a
  /// marker or checkpoint that claims events the failed lane never
  /// delivered.
  void Drop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (parties_ > 0) --parties_;
    if (parties_ > 0 && arrived_ >= parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t arrived_ = 0;
  uint64_t phase_ = 0;
};

/// Per-lane queue capacity in items (batches + barrier tokens).
constexpr size_t kLaneQueueItems = 1 << 8;

struct LaneState {
  LaneState() : queue(kLaneQueueItems), recycle(kLaneQueueItems) {}

  SpscQueue<LaneItem> queue;
  /// Lane -> reader batch return path: consumed batches come back with
  /// their capacity intact, so the steady state recycles arenas instead of
  /// allocating.
  SpscQueue<LaneBatch> recycle;
  std::thread thread;
  /// Lane-local stats: events_delivered / lag / rate_series / telemetry
  /// cover only this lane (markers, controls and entries are stream-global
  /// and live in the aggregate).
  ReplayStats stats;
  Status status;
  std::atomic<bool> failed{false};
};

}  // namespace

size_t ShardOfVertex(VertexId id, size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<size_t>(MixBits(id) % shards);
}

size_t ShardOfEvent(EventType type, VertexId vertex, const EdgeId& edge,
                    size_t shards) {
  return ShardOfVertex(IsEdgeOp(type) ? edge.src : vertex, shards);
}

Result<ShardedReplayStats> ShardedReplayer::Replay(
    const std::vector<Event>& events, const std::vector<EventSink*>& sinks,
    const ReplayCheckpoint* resume) {
  size_t index = 0;
  return Run(
      [&events, index]() mutable -> Result<std::optional<EventView>> {
        if (index >= events.size()) {
          return std::optional<EventView>(std::nullopt);
        }
        const Event& e = events[index++];
        EventView view;
        view.type = e.type;
        view.vertex = e.vertex;
        view.edge = e.edge;
        view.payload = e.payload;
        view.rate_factor = e.rate_factor;
        view.pause = e.pause;
        return std::optional<EventView>(view);
      },
      sinks, resume);
}

Result<ShardedReplayStats> ShardedReplayer::ReplayFile(
    const std::string& path, const std::vector<EventSink*>& sinks,
    const ReplayCheckpoint* resume) {
  // Auto-detect by magic. A v2 stream feeds Run() borrowed views straight
  // out of the mmap'd block reader — no parse, no copy; CSV goes through
  // the zero-copy line parser. Either way Run() is format-blind, so
  // sharding, barriers and checkpoints behave identically (the golden
  // equivalence tests in tests/stream/v2_replay_equivalence_test.cc hold
  // the two byte-for-byte equal).
  GT_ASSIGN_OR_RETURN(const StreamFormat format, DetectStreamFormat(path));
  if (format == StreamFormat::kV2) {
    auto reader = std::make_shared<V2StreamReader>();
    GT_RETURN_NOT_OK(reader->Open(path));
    return Run([reader]() { return reader->Next(); }, sinks, resume);
  }
  auto reader = std::make_shared<BlockLineReader>();
  GT_RETURN_NOT_OK(reader->Open(path));
  auto scratch = std::make_shared<std::string>();
  return Run(
      [reader, scratch]() -> Result<std::optional<EventView>> {
        while (true) {
          bool terminated = true;
          Result<std::optional<std::string_view>> line =
              reader->NextLine(&terminated);
          if (!line.ok()) return line.status();
          if (!line->has_value()) return std::optional<EventView>(std::nullopt);
          Result<EventView> view = ParseEventLineView(**line, scratch.get());
          if (view.ok()) return std::optional<EventView>(*view);
          if (view.status().IsNotFound()) continue;  // blank / comment line
          return view.status().WithContext(
              "line " + std::to_string(reader->line_number()));
        }
      },
      sinks, resume);
}

Result<ShardedReplayStats> ShardedReplayer::Run(
    const SourceFn& source, const std::vector<EventSink*>& sinks,
    const ReplayCheckpoint* resume) {
  const size_t shards = options_.shards;
  if (shards == 0) return Status::InvalidArgument("shards must be >= 1");
  if (sinks.size() != shards) {
    return Status::InvalidArgument(
        "need exactly one sink per shard (" + std::to_string(shards) +
        " shards, " + std::to_string(sinks.size()) + " sinks)");
  }
  for (EventSink* sink : sinks) {
    if (sink == nullptr) return Status::InvalidArgument("null sink");
  }
  if (options_.total_rate_eps <= 0.0) {
    return Status::InvalidArgument("total_rate_eps must be positive");
  }
  if (options_.batch_events == 0) {
    return Status::InvalidArgument("batch_events must be >= 1");
  }
  if (options_.checkpoint_every > 0 && options_.checkpoint_path.empty()) {
    return Status::InvalidArgument("checkpoint_every requires checkpoint_path");
  }
  const size_t hash_shards =
      options_.total_shards == 0 ? shards : options_.total_shards;
  const size_t shard_offset = options_.shard_offset;
  if (shard_offset + shards > hash_shards) {
    return Status::InvalidArgument(
        "shard range [" + std::to_string(shard_offset) + ", " +
        std::to_string(shard_offset + shards) + ") exceeds total_shards " +
        std::to_string(hash_shards));
  }
  RunTelemetry* const telem =
      kTelemetryCompiled ? options_.telemetry : nullptr;
  if (telem != nullptr && telem->shards() < shards) {
    return Status::InvalidArgument(
        "telemetry hub has " + std::to_string(telem->shards()) +
        " slots for " + std::to_string(shards) + " shards");
  }

  // Per-sink wire handshake, before any lane starts: a sink answering kV2
  // has already emitted its preamble and its lane will hand it sealed v2
  // blocks; decliners stay on canonical CSV lines.
  std::vector<WireFormat> lane_wire(shards, WireFormat::kCsv);
  if (options_.wire_format != WireFormat::kCsv) {
    for (size_t s = 0; s < shards; ++s) {
      GT_ASSIGN_OR_RETURN(lane_wire[s], sinks[s]->NegotiateWireFormat(
                                            options_.wire_format));
    }
  }

  // Byte offsets each lane's sink chain had flushed when this segment
  // resumed; checkpoints record cumulative offsets across segments.
  std::vector<uint64_t> sink_bytes_base(shards, 0);
  if (resume != nullptr && !resume->sink_bytes.empty()) {
    if (resume->sink_bytes.size() != shards) {
      return Status::InvalidArgument(
          "resume checkpoint records sink bytes for " +
          std::to_string(resume->sink_bytes.size()) + " shards, run has " +
          std::to_string(shards));
    }
    sink_bytes_base = resume->sink_bytes;
  }

  // --- Counters seeded from the resume checkpoint: the final stats match
  // an uninterrupted run.
  const uint64_t skip_entries = resume != nullptr ? resume->entries_consumed : 0;
  uint64_t entries = skip_entries;
  uint64_t events_enqueued = resume != nullptr ? resume->events_delivered : 0;
  uint64_t markers = resume != nullptr ? resume->markers : 0;
  uint64_t controls = resume != nullptr ? resume->controls : 0;
  double current_factor = (resume != nullptr && options_.honor_control_events)
                              ? resume->rate_factor
                              : 1.0;
  if (resume != nullptr && options_.checkpoint_rng != nullptr) {
    options_.checkpoint_rng->RestoreState(resume->rng_state);
  }
  const SinkTelemetry telemetry_base =
      resume != nullptr ? resume->telemetry : SinkTelemetry{};
  const uint64_t resume_base = events_enqueued;
  progress_.store(resume_base, std::memory_order_relaxed);
  local_delivered_.store(resume != nullptr ? resume->local_events : 0,
                         std::memory_order_relaxed);
  const uint64_t stop_at = options_.stop_after_events > 0
                               ? resume_base + options_.stop_after_events
                               : 0;

  MonotonicClock clock;
  const Timestamp run_started = clock.Now();
  const double per_lane_rate =
      options_.total_rate_eps / static_cast<double>(shards);

  EpochBarrier barrier(shards);
  std::atomic<bool> sink_failed{false};
  std::atomic<bool> checkpoint_failed{false};
  std::atomic<bool> hook_failed{false};
  // Written only inside barrier completions (serial under the barrier
  // mutex), read by this thread after the lanes are joined.
  Status hook_status;
  // Written only inside barrier completions (which run serially under the
  // barrier mutex) and by this thread after the lanes are joined.
  std::vector<MarkerRecord> marker_log;
  uint64_t checkpoints_written = 0;
  Status checkpoint_status;

  std::vector<std::unique_ptr<LaneState>> lanes;
  lanes.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    lanes.push_back(std::make_unique<LaneState>());
  }

  auto current_telemetry = [&] {
    SinkTelemetry t = telemetry_base;
    for (EventSink* sink : sinks) t.Merge(sink->Telemetry());
    return t;
  };

  // Writes a checkpoint for a quiescent point: called from barrier
  // completions (all live lanes parked, their sinks idle — which is what
  // makes flushing every sink from the completing thread safe) and after
  // the final join. `false` on write failure.
  const CheckpointStore store(
      {options_.checkpoint_path,
       std::max<size_t>(1, options_.checkpoint_generations)});
  auto write_checkpoint_at = [&](const BarrierCmd& at) -> bool {
    if (options_.checkpoint_path.empty()) return true;
    ReplayCheckpoint cp;
    cp.entries_consumed = at.entries_consumed;
    cp.events_delivered = at.events_before;
    cp.markers = at.markers;
    cp.controls = at.controls;
    cp.rate_factor = at.factor_at;
    // Exact at a quiescent point: every enqueued in-range event up to the
    // barrier has been acknowledged by its sink.
    cp.local_events = local_delivered_.load(std::memory_order_relaxed);
    if (options_.checkpoint_rng != nullptr) {
      cp.rng_state = options_.checkpoint_rng->SaveState();
    }
    cp.telemetry = current_telemetry();
    if (options_.record_sink_bytes) {
      cp.sink_bytes.resize(shards);
      for (size_t s = 0; s < shards; ++s) {
        checkpoint_status = sinks[s]->Flush();
        if (!checkpoint_status.ok()) {
          checkpoint_failed.store(true, std::memory_order_release);
          return false;
        }
        cp.sink_bytes[s] = sink_bytes_base[s] + sinks[s]->bytes_delivered();
      }
    }
    checkpoint_status = store.Save(cp);
    if (checkpoint_status.ok()) {
      ++checkpoints_written;
      return true;
    }
    checkpoint_failed.store(true, std::memory_order_release);
    return false;
  };

  auto complete_barrier = [&](const BarrierCmd& cmd) {
    if (sink_failed.load(std::memory_order_acquire)) return;
    // Crash window: every lane is quiesced behind the barrier; for a
    // checkpoint epoch the record has not been published yet — a kill
    // here must resume from the previous checkpoint exactly-once.
    FaultPlan::Global().Hit(kCrashEpochBarrier);
    if (cmd.kind == BarrierCmd::Kind::kMarker) {
      const Timestamp now = clock.Now();
      marker_log.push_back(
          {cmd.label, now, static_cast<size_t>(cmd.events_before)});
      if (telem != nullptr) telem->markers().MarkerSent(cmd.label, now);
    } else if (cmd.kind == BarrierCmd::Kind::kCheckpoint) {
      write_checkpoint_at(cmd);
    }
    // Distributed hold point: every local lane is quiesced at this epoch;
    // block here until the coordinator releases it fleet-wide. Failure
    // aborts the run like a cancellation (drain + final checkpoint).
    if (options_.epoch_hook && cmd.kind != BarrierCmd::Kind::kCheckpoint &&
        !hook_failed.load(std::memory_order_acquire)) {
      const Status hs = options_.epoch_hook(cmd.global_epoch);
      if (!hs.ok()) {
        hook_status = hs;
        hook_failed.store(true, std::memory_order_release);
      }
    }
  };

  auto lane_main = [&](size_t shard) {
    LaneState& lane = *lanes[shard];
    EventSink* sink = sinks[shard];
    RateController rate(per_lane_rate, &clock);
    double lane_target = options_.total_rate_eps;
    if (resume != nullptr && options_.honor_control_events) {
      rate.SetFactor(resume->rate_factor);
    }
    ReplayStats& st = lane.stats;
    st.started = clock.Now();
    Timestamp bin_start = st.started;
    size_t bin_count = 0;
    auto roll_bins = [&](Timestamp now) {
      while (now - bin_start >= options_.stats_bin) {
        st.rate_series.push_back({bin_start, bin_count});
        bin_start = bin_start + options_.stats_bin;
        bin_count = 0;
      }
    };
    const bool serialized = sink->SupportsSerialized();
    const bool v2_wire = serialized && lane_wire[shard] == WireFormat::kV2;
    std::string out;
    V2BlockEncoder v2_encoder;
    EventView view;
    Event scratch;
    Status emit;
    // Serializes the current `view` into `out` in the negotiated wire
    // format: one sealed v2 block per hand-off (full blocks seal and
    // continue — several blocks per delivery is still one valid stream)
    // or one canonical CSV line per event.
    auto serialize_one = [&] {
      if (v2_wire) {
        v2_encoder.Add(view.type, view.vertex, view.edge, view.payload,
                       view.rate_factor, view.pause);
        if (v2_encoder.Full()) v2_encoder.SealTo(&out);
      } else {
        view.AppendLine(&out);
      }
    };
    auto poll_target = [&] {
      if (options_.rate_target_eps == nullptr) return;
      const double target =
          options_.rate_target_eps->load(std::memory_order_relaxed);
      if (target > 0.0 && target != lane_target) {
        rate.Retarget(target / static_cast<double>(shards));
        lane_target = target;
      }
    };

    // Events delivered (per-event path) or serialized (serialized path)
    // since the last hand-off, and the deadline of the last of them.
    size_t pending = 0;
    Timestamp last_slot;
    // Sampling is per hand-off: the first event after one donates the
    // throttle and serialize spans; the next hand-off records deliver (the
    // sink call) and ack (the accounting).
    bool sampled = telem != nullptr && telem->ShouldSample(shard);
    bool first = true;
    Timestamp span_start;

    // The delivery hand-off. The serialized path gives the sink everything
    // serialized since the last one, sealing a partial v2 block; the
    // per-event path has delivered already. Then the events are accounted:
    // progress, bins, lag, telemetry. False when the sink failed.
    auto hand_off = [&]() -> bool {
      if (pending == 0) return true;
      if (serialized) {
        if (v2_wire) v2_encoder.SealTo(&out);
        const Timestamp deliver_start = sampled ? clock.Now() : Timestamp{};
        emit = sink->DeliverSerialized(out, pending);
        if (sampled) {
          telem->RecordStage(shard, ReplayStage::kDeliver,
                             clock.Now() - deliver_start);
        }
        out.clear();
        if (!emit.ok()) {
          pending = 0;
          return false;
        }
        // Sink acked the events; lane accounting not updated yet. One Hit
        // per record (not per hand-off) so a scripted crash index counts
        // delivered events regardless of batching.
        for (size_t i = 0; i < pending; ++i) {
          FaultPlan::Global().Hit(kCrashPostDelivery);
        }
      }
      const Timestamp ack_start = clock.Now();
      st.events_delivered += pending;
      progress_.fetch_add(pending, std::memory_order_relaxed);
      local_delivered_.fetch_add(pending, std::memory_order_relaxed);
      st.lag.Record(ack_start - last_slot);
      roll_bins(last_slot);
      bin_count += pending;
      if (telem != nullptr) {
        telem->AddDelivered(shard, pending);
        if (sampled) {
          telem->UpdateDeliveryCounters(shard,
                                        ToDeliveryCounters(sink->Telemetry()));
          telem->RecordStage(shard, ReplayStage::kAck,
                             clock.Now() - ack_start);
        }
        sampled = telem->ShouldSample(shard);
      }
      first = true;
      pending = 0;
      return true;
    };

    // The only point where a lane can be ahead of schedule. It hands off
    // and accounts what is pending first, so a paced lane delivers every
    // event at its slot, and polls the live target. Once `cancel` fired it
    // skips the wait: the read-ahead drains unpaced. False when the sink
    // failed.
    auto wait_point = [&](Timestamp slot) -> bool {
      if (!hand_off()) return false;
      poll_target();
      if (sampled && first) span_start = clock.Now();
      if (options_.cancel == nullptr || !options_.cancel->cancelled()) {
        rate.WaitUntil(slot);
      }
      return true;
    };

    while (true) {
      std::optional<LaneItem> popped = lane.queue.TryPop();
      if (!popped.has_value()) {
        std::this_thread::yield();
        continue;
      }
      LaneItem item = std::move(*popped);
      if (item.kind == ItemKind::kEnd) break;
      if (item.kind == ItemKind::kBarrier) {
        const BarrierCmd& cmd = item.barrier;
        barrier.ArriveAndWait([&] { complete_barrier(cmd); });
        if (cmd.kind == BarrierCmd::Kind::kControl &&
            options_.honor_control_events) {
          if (cmd.control == EventType::kSetRate) {
            rate.SetFactor(cmd.rate_factor);
          } else {
            rate.Defer(cmd.pause);
          }
        }
        continue;
      }

      LaneBatch batch = std::move(item.batch);
      // Retarget at batch granularity too: a lane that lags its schedule
      // never reaches a wait point.
      poll_target();
      if (serialized) {
        // Zero-copy path: pace each slot, serialize the canonical line
        // into the reusable buffer, hand the sink everything serialized
        // at the next wait point or at the end of the batch.
        for (const LaneRecord& r : batch.records) {
          if (sampled && first) span_start = clock.Now();
          const Timestamp slot = rate.NextDeadline();
          if (!rate.Due(slot) && !wait_point(slot)) break;
          view.type = r.type;
          view.vertex = r.vertex;
          view.edge = r.edge;
          view.payload = batch.PayloadOf(r);
          if (sampled && first) {
            const Timestamp serialize_start = clock.Now();
            telem->RecordStage(shard, ReplayStage::kThrottle,
                               serialize_start - span_start);
            serialize_one();
            telem->RecordStage(shard, ReplayStage::kSerialize,
                               clock.Now() - serialize_start);
            first = false;
          } else {
            serialize_one();
          }
          ++pending;
          last_slot = slot;
        }
      } else {
        // Decorated sinks (chaos/resilient/callback) need the per-event
        // path; one reusable Event keeps it allocation-free in steady
        // state too.
        for (const LaneRecord& r : batch.records) {
          if (sampled && first) span_start = clock.Now();
          const Timestamp slot = rate.NextDeadline();
          if (!rate.Due(slot) && !wait_point(slot)) break;
          scratch.type = r.type;
          scratch.vertex = r.vertex;
          scratch.edge = r.edge;
          scratch.payload.assign(batch.arena, r.payload_offset, r.payload_len);
          if (sampled && first) {
            const Timestamp deliver_start = clock.Now();
            telem->RecordStage(shard, ReplayStage::kThrottle,
                               deliver_start - span_start);
            emit = sink->DeliverSequenced(scratch, r.seq);
            telem->RecordStage(shard, ReplayStage::kDeliver,
                               clock.Now() - deliver_start);
            first = false;
          } else {
            emit = sink->DeliverSequenced(scratch, r.seq);
          }
          if (!emit.ok()) break;
          FaultPlan::Global().Hit(kCrashPostDelivery);
          ++pending;
          last_slot = slot;
        }
      }
      // Whatever the batch left pending; after a per-event failure this
      // still accounts the events delivered before it.
      hand_off();
      batch.Clear();
      (void)lane.recycle.TryPush(std::move(batch));
      if (!emit.ok()) {
        lane.status = emit.WithContext("shard " + std::to_string(shard));
        lane.failed.store(true, std::memory_order_release);
        sink_failed.store(true, std::memory_order_release);
        barrier.Drop();
        break;
      }
    }
    if (bin_count > 0) st.rate_series.push_back({bin_start, bin_count});
    st.finished = clock.Now();
    st.telemetry = sink->Telemetry();
    if (telem != nullptr) {
      telem->UpdateDeliveryCounters(shard, ToDeliveryCounters(st.telemetry));
    }
  };

  for (size_t s = 0; s < shards; ++s) {
    lanes[s]->thread = std::thread(lane_main, s);
  }

  // --- Reader: parse, partition, batch. ---------------------------------
  auto acquire_batch = [&](size_t s) -> LaneBatch {
    if (std::optional<LaneBatch> recycled = lanes[s]->recycle.TryPop()) {
      return std::move(*recycled);
    }
    LaneBatch batch;
    batch.Reserve(options_.batch_events);
    return batch;
  };
  std::vector<LaneBatch> open;
  open.reserve(shards);
  for (size_t s = 0; s < shards; ++s) open.push_back(acquire_batch(s));

  // Spins while the lane's queue is full (the lane is draining); false when
  // the lane failed, so the reader never wedges on a dead consumer.
  auto push_item = [&](size_t s, LaneItem&& item) -> bool {
    LaneState& lane = *lanes[s];
    while (!lane.queue.TryPush(std::move(item))) {
      if (lane.failed.load(std::memory_order_acquire)) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto flush_lane = [&](size_t s) {
    if (open[s].records.empty()) return;
    LaneItem item;
    item.kind = ItemKind::kBatch;
    item.batch = std::move(open[s]);
    push_item(s, std::move(item));
    open[s] = acquire_batch(s);
  };
  uint64_t epoch = 0;
  // Open batches flush first, so the barrier token follows every graph
  // event enqueued before it in every lane's FIFO queue.
  auto broadcast = [&](BarrierCmd cmd) {
    cmd.epoch = epoch++;
    for (size_t s = 0; s < shards; ++s) flush_lane(s);
    for (size_t s = 0; s < shards; ++s) {
      LaneItem item;
      item.kind = ItemKind::kBarrier;
      item.barrier = cmd;
      push_item(s, std::move(item));
    }
  };

  Status reader_status;
  bool cancelled = false;
  bool stopped = false;
  uint64_t to_skip = skip_entries;
  uint32_t read_tick = 0;
  while (true) {
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      cancelled = true;
      break;
    }
    if (sink_failed.load(std::memory_order_relaxed) ||
        checkpoint_failed.load(std::memory_order_relaxed) ||
        hook_failed.load(std::memory_order_relaxed)) {
      break;
    }
    // Read-stage span, sampled 1-in-N source pulls. The reader is
    // pipeline-global, so its samples land in slot 0 (RecordStage locks
    // the slot, sharing it with lane 0 is safe).
    const bool sample_read =
        telem != nullptr && ++read_tick % telem->sample_every() == 0;
    const Timestamp read_start = sample_read ? clock.Now() : Timestamp{};
    Result<std::optional<EventView>> next = source();
    if (sample_read) {
      telem->RecordStage(0, ReplayStage::kRead, clock.Now() - read_start);
    }
    if (!next.ok()) {
      reader_status = next.status();
      break;
    }
    if (!next->has_value()) {  // end of stream
      if (to_skip > 0) {
        reader_status = Status::InvalidArgument(
            "resume checkpoint lies beyond the end of the stream (" +
            std::to_string(to_skip) + " entries short)");
      }
      break;
    }
    if (to_skip > 0) {
      --to_skip;
      continue;
    }
    const EventView& e = **next;
    ++entries;

    if (IsControl(e.type)) {
      ++controls;
      if (options_.honor_control_events) {
        BarrierCmd cmd;
        cmd.kind = BarrierCmd::Kind::kControl;
        cmd.global_epoch = markers + controls;
        cmd.control = e.type;
        cmd.rate_factor = e.rate_factor;
        cmd.pause = e.pause;
        if (e.type == EventType::kSetRate) current_factor = e.rate_factor;
        broadcast(std::move(cmd));
      }
      continue;
    }
    if (e.type == EventType::kMarker) {
      ++markers;
      BarrierCmd cmd;
      cmd.kind = BarrierCmd::Kind::kMarker;
      cmd.global_epoch = markers + controls;
      cmd.label = std::string(e.payload);
      cmd.events_before = events_enqueued;
      broadcast(std::move(cmd));
      continue;
    }

    // Global shard first: every process counts every event (checkpoint
    // cadence, sequence numbers and epochs stay fleet-identical); only
    // the owner of the hash slot emits it.
    const size_t g = ShardOfEvent(e.type, e.vertex, e.edge, hash_shards);
    if (g >= shard_offset && g - shard_offset < shards) {
      const size_t s = g - shard_offset;
      if (!lanes[s]->failed.load(std::memory_order_relaxed)) {
        LaneBatch& batch = open[s];
        batch.Append(e.type, e.vertex, e.edge, e.payload, e.rate_factor,
                     e.pause, events_enqueued);
        if (batch.Full(options_.batch_events)) flush_lane(s);
      }
    }
    ++events_enqueued;
    if (options_.checkpoint_every > 0 &&
        events_enqueued % options_.checkpoint_every == 0) {
      BarrierCmd cmd;
      cmd.kind = BarrierCmd::Kind::kCheckpoint;
      cmd.entries_consumed = entries;
      cmd.events_before = events_enqueued;
      cmd.markers = markers;
      cmd.controls = controls;
      cmd.factor_at = current_factor;
      broadcast(std::move(cmd));
    }
    if (stop_at != 0 && events_enqueued >= stop_at) {
      stopped = true;
      break;
    }
  }

  // Drain: everything already enqueued (and counted) must reach its sink
  // before the final accounting — that is what makes the post-run
  // checkpoint exactly-once even for cancel/stop aborts.
  for (size_t s = 0; s < shards; ++s) flush_lane(s);
  for (size_t s = 0; s < shards; ++s) {
    LaneItem item;
    item.kind = ItemKind::kEnd;
    push_item(s, std::move(item));
  }
  for (size_t s = 0; s < shards; ++s) lanes[s]->thread.join();
  // A cancel that lands after the reader reached the end of the stream
  // still cancels the run: the lanes drained the rest unpaced.
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    cancelled = true;
  }

  // --- Assemble the aggregate. ------------------------------------------
  ShardedReplayStats result;
  ReplayStats& agg = result.aggregate;
  agg.started = run_started;
  agg.finished = clock.Now();
  agg.events_delivered = resume_base;
  std::map<int64_t, size_t> merged_bins;
  const int64_t bin_nanos = options_.stats_bin.nanos();
  for (size_t s = 0; s < shards; ++s) {
    ReplayStats& lane_stats = lanes[s]->stats;
    agg.events_delivered += lane_stats.events_delivered;
    agg.lag.Merge(lane_stats.lag);
    for (const RateSample& sample : lane_stats.rate_series) {
      merged_bins[(sample.bin_start - run_started).nanos() / bin_nanos] +=
          sample.events;
    }
    result.per_shard.push_back(std::move(lane_stats));
  }
  for (const auto& [index, events] : merged_bins) {
    agg.rate_series.push_back(
        {run_started + options_.stats_bin * index, events});
  }
  if (hash_shards > shards) {
    // Shard-range runs keep stream-global accounting in the aggregate
    // (markers, controls, entries already are): every enqueued event was
    // counted exactly once fleet-wide. This range's own share is
    // local_delivered().
    agg.events_delivered = events_enqueued;
  }
  agg.markers = markers;
  agg.controls = controls;
  agg.marker_log = std::move(marker_log);
  agg.entries_consumed = entries;

  Status lane_error;
  for (size_t s = 0; s < shards; ++s) {
    if (!lanes[s]->status.ok()) {
      lane_error = lanes[s]->status;
      break;
    }
  }
  // The abort-point checkpoint: all enqueued events were drained, so the
  // record is exact — unless a lane failed, in which case no record that
  // claims them may be written.
  BarrierCmd final_at;
  final_at.entries_consumed = entries;
  final_at.events_before = events_enqueued;
  final_at.markers = markers;
  final_at.controls = controls;
  final_at.factor_at = current_factor;

  const bool hook_aborted = hook_failed.load(std::memory_order_acquire);
  if (cancelled || stopped || hook_aborted) {
    Status finish_status;
    for (EventSink* sink : sinks) {
      const Status st = sink->Finish();
      if (!st.ok() && finish_status.ok()) finish_status = st;
    }
    agg.telemetry = current_telemetry();
    if (lane_error.ok()) write_checkpoint_at(final_at);
    agg.checkpoints_written = checkpoints_written;
    agg.stopped_early = true;
    if (cancelled) {
      const std::string reason = options_.cancel->reason();
      return Status::Cancelled(reason.empty() ? "replay cancelled" : reason);
    }
    if (hook_aborted) {
      // Quiesce-and-wait abort: everything enqueued was drained and the
      // final checkpoint is exact, so a later resume continues
      // byte-exactly — the caller decides whether to re-dial or give up.
      return hook_status.WithContext("epoch hook");
    }
    GT_RETURN_NOT_OK(checkpoint_status.WithContext("final checkpoint"));
    GT_RETURN_NOT_OK(finish_status.WithContext("sink finish"));
    return result;
  }

  if (!lane_error.ok()) return lane_error.WithContext("sink delivery");
  if (!checkpoint_status.ok()) {
    return checkpoint_status.WithContext("periodic checkpoint");
  }
  if (!reader_status.ok()) return reader_status.WithContext("stream source");
  for (EventSink* sink : sinks) GT_RETURN_NOT_OK(sink->Finish());
  agg.telemetry = current_telemetry();
  if (options_.checkpoint_every > 0 && !write_checkpoint_at(final_at)) {
    return checkpoint_status.WithContext("final checkpoint");
  }
  agg.checkpoints_written = checkpoints_written;
  return result;
}

}  // namespace graphtides
