#include "replayer/sharded_replayer.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "common/fault_plan.h"
#include "replayer/event_batch.h"
#include "replayer/rate_controller.h"
#include "replayer/replay_config.h"
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

/// What the completion of one epoch barrier does. The reader posts it to
/// the EpochBarrier and hands every lane a token for it: a marker or
/// control record, the last of its batch. Every live lane meets the others
/// there before anyone emits past it.
struct BarrierCmd {
  enum class Kind : uint8_t { kMarker, kControl, kCheckpoint };
  Kind kind = Kind::kMarker;
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

/// \brief Barrier with a per-phase completion run by the last arriver while
/// the others are parked — the quiescent point where markers are recorded
/// and checkpoints written. Each phase's command is posted by the reader
/// before any lane can meet its token, and phases complete in posting
/// order. A failing lane Drop()s out of every future phase so the healthy
/// lanes never wait for it. Contended only at marker/control/checkpoint
/// epochs, never on the batch hot path.
class EpochBarrier {
 public:
  explicit EpochBarrier(size_t parties) : parties_(parties) {}

  /// Reader thread: queues the command of the next phase.
  void Post(BarrierCmd cmd) {
    std::lock_guard<std::mutex> lock(mu_);
    posted_.push_back(std::move(cmd));
  }

  /// The last arriver runs `complete` on the phase's command.
  void ArriveAndWait(const std::function<void(const BarrierCmd&)>& complete) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t phase = phase_;
    ++arrived_;
    if (arrived_ >= parties_) {
      complete(posted_.front());
      Advance();
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
    if (parties_ > 0 && arrived_ >= parties_) Advance();
  }

 private:
  /// With mu_ held: ends the current phase and discards its command.
  void Advance() {
    posted_.pop_front();
    arrived_ = 0;
    ++phase_;
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t arrived_ = 0;
  uint64_t phase_ = 0;
  std::deque<BarrierCmd> posted_;
};

/// A barrier token: the marker or control record that ends a flushed lane
/// batch. Graph events are the only other records a lane receives.
bool IsBarrierToken(const EventRecord& record) {
  return !IsGraphOp(record.type);
}

struct LaneState {
  /// Reader -> lane: the lane's graph events with their sequence numbers,
  /// and a barrier token at each epoch.
  BatchHandoff input;
  std::thread thread;
  /// Lane-local stats: events_delivered / lag / rate_series / telemetry
  /// cover only this lane (markers, controls and entries are stream-global
  /// and live in the aggregate).
  ReplayStats stats;
  Status status;
};

/// \brief Read-stage telemetry spans: times 1-in-N pulls of a decoder.
/// Reads are pipeline-global, so samples land in slot 0 (RecordStage locks
/// the slot; sharing it with lane 0 is safe).
class ReadSpans {
 public:
  explicit ReadSpans(RunTelemetry* telem)
      : telem_(kTelemetryCompiled ? telem : nullptr) {}

  template <typename Pull>
  Result<std::optional<EventView>> Time(Pull&& pull) {
    if (telem_ == nullptr || ++tick_ % telem_->sample_every() != 0) {
      return pull();
    }
    const Timestamp start = clock_.Now();
    Result<std::optional<EventView>> next = pull();
    telem_->RecordStage(0, ReplayStage::kRead, clock_.Now() - start);
    return next;
  }

 private:
  RunTelemetry* telem_;
  MonotonicClock clock_;
  uint32_t tick_ = 0;
};

/// \brief Run()'s source over an in-memory stream; views borrow from the
/// events.
class MemorySource {
 public:
  MemorySource(const std::vector<Event>& events, RunTelemetry* telem)
      : events_(events), read_spans_(telem) {}

  Result<std::optional<EventView>> Next() {
    return read_spans_.Time([this]() -> Result<std::optional<EventView>> {
      if (index_ >= events_.size()) {
        return std::optional<EventView>(std::nullopt);
      }
      const Event& e = events_[index_++];
      EventView view;
      view.type = e.type;
      view.vertex = e.vertex;
      view.edge = e.edge;
      view.payload = e.payload;
      view.rate_factor = e.rate_factor;
      view.pause = e.pause;
      return std::optional<EventView>(view);
    });
  }

  void Stop() {}

 private:
  const std::vector<Event>& events_;
  size_t index_ = 0;
  ReadSpans read_spans_;
};

/// \brief Run()'s source over a stream file: the decode stage.
///
/// One decode thread runs the file format's decoder (the mmap'd v2 block
/// reader, or BlockLineReader + ParseEventLineView for CSV) and hands the
/// entries over in BatchHandoff batches, so the reader only pops views.
/// A decode error closes the hand-off and reaches the reader after every
/// entry before it. Stop() (or destruction) ends the thread at its next
/// hand-over; the destructor joins it.
class FileSource {
 public:
  FileSource() = default;
  FileSource(const FileSource&) = delete;
  FileSource& operator=(const FileSource&) = delete;
  ~FileSource() {
    Stop();
    if (decoder_.joinable()) decoder_.join();
  }

  /// Opens `path` on the calling thread (format by magic, so open errors
  /// return here), then starts the decode thread.
  Status Open(const std::string& path, RunTelemetry* telem) {
    GT_ASSIGN_OR_RETURN(const StreamFormat format, DetectStreamFormat(path));
    if (format == StreamFormat::kV2) {
      GT_RETURN_NOT_OK(v2_reader_.Open(path));
      decoder_ = std::thread([this, telem] {
        Decode(telem, [this] { return v2_reader_.Next(); });
      });
    } else {
      GT_RETURN_NOT_OK(line_reader_.Open(path));
      decoder_ = std::thread([this, telem] {
        Decode(telem, [this] { return NextCsvEntry(); });
      });
    }
    return Status::OK();
  }

  /// Reader thread: the next entry; the view is valid until the next call.
  Result<std::optional<EventView>> Next() {
    while (!batch_.has_value() || next_record_ == batch_->records.size()) {
      if (batch_.has_value()) handoff_.Recycle(std::move(*batch_));
      batch_ = handoff_.Next();
      next_record_ = 0;
      if (!batch_.has_value()) {
        if (!handoff_.status().ok()) return handoff_.status();
        return std::optional<EventView>(std::nullopt);
      }
    }
    const EventRecord& r = batch_->records[next_record_++];
    EventView view;
    view.type = r.type;
    view.vertex = r.vertex;
    view.edge = r.edge;
    view.payload = batch_->PayloadOf(r);
    view.rate_factor = r.rate_factor;
    view.pause = r.pause;
    return std::optional<EventView>(view);
  }

  /// Reader thread: the reader pulls no more.
  void Stop() { handoff_.Stop(); }

 private:
  /// Decode thread: runs `pull` to the end of the stream, the first error
  /// or Stop(). An exception (an allocation failure) ends the stream with
  /// an error instead of the program.
  template <typename Pull>
  void Decode(RunTelemetry* telem, Pull pull) {
    ReadSpans read_spans(telem);
    try {
      while (true) {
        Result<std::optional<EventView>> next = read_spans.Time(pull);
        if (!next.ok()) {
          handoff_.Close(next.status());
          return;
        }
        if (!next->has_value()) break;
        const EventView& e = **next;
        if (!handoff_.Add(e.type, e.vertex, e.edge, e.payload, e.rate_factor,
                          e.pause)) {
          break;  // the reader stopped
        }
      }
    } catch (const std::exception& e) {
      handoff_.Close(
          Status::Internal(std::string("decode thread: ") + e.what()));
      return;
    }
    handoff_.Close();
  }

  /// Decode thread: the next CSV entry, skipping blank and comment lines.
  Result<std::optional<EventView>> NextCsvEntry() {
    while (true) {
      Result<std::optional<std::string_view>> line = line_reader_.NextLine();
      if (!line.ok()) return line.status();
      if (!line->has_value()) return std::optional<EventView>(std::nullopt);
      Result<EventView> view = ParseEventLineView(**line, &scratch_);
      if (view.ok()) return std::optional<EventView>(*view);
      if (view.status().IsNotFound()) continue;  // blank / comment line
      return view.status().WithContext(
          "line " + std::to_string(line_reader_.line_number()));
    }
  }

  V2StreamReader v2_reader_;
  BlockLineReader line_reader_;
  std::string scratch_;
  BatchHandoff handoff_;
  std::thread decoder_;
  // Reader side: the batch being popped, and the next record in it.
  std::optional<EventBatch> batch_;
  size_t next_record_ = 0;
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
  MemorySource source(events, options_.telemetry);
  return Run(source, sinks, resume);
}

Result<ShardedReplayStats> ShardedReplayer::ReplayFile(
    const std::string& path, const std::vector<EventSink*>& sinks,
    const ReplayCheckpoint* resume) {
  // Either format feeds Run() the same views, so sharding, barriers and
  // checkpoints behave identically (the golden equivalence tests in
  // tests/stream/v2_replay_equivalence_test.cc hold the two byte-for-byte
  // equal).
  FileSource source;
  GT_RETURN_NOT_OK(source.Open(path, options_.telemetry));
  return Run(source, sinks, resume);
}

template <typename Source>
Result<ShardedReplayStats> ShardedReplayer::Run(
    Source& source, const std::vector<EventSink*>& sinks,
    const ReplayCheckpoint* resume) {
  GT_RETURN_NOT_OK(
      ValidateReplayConfig(options_, {.resume = resume != nullptr}));
  const size_t shards = options_.shards;
  if (sinks.size() != shards) {
    return Status::InvalidArgument(
        "need exactly one sink per shard (" + std::to_string(shards) +
        " shards, " + std::to_string(sinks.size()) + " sinks)");
  }
  for (EventSink* sink : sinks) {
    if (sink == nullptr) return Status::InvalidArgument("null sink");
  }
  const size_t hash_shards =
      options_.total_shards == 0 ? shards : options_.total_shards;
  const size_t shard_offset = options_.shard_offset;
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

    while (std::optional<EventBatch> batch = lane.input.Next()) {
      // Hand-overs are never empty; a barrier token can only be last.
      std::span<const EventRecord> records(batch->records);
      const EventRecord last = records.back();
      if (IsBarrierToken(last)) records = records.first(records.size() - 1);
      // Retarget at batch granularity too: a lane that lags its schedule
      // never reaches a wait point.
      poll_target();
      if (serialized) {
        // Zero-copy path: pace each slot, serialize the canonical line
        // into the reusable buffer, hand the sink everything serialized
        // at the next wait point or at the end of the batch.
        for (const EventRecord& r : records) {
          if (sampled && first) span_start = clock.Now();
          const Timestamp slot = rate.NextDeadline();
          if (!rate.Due(slot) && !wait_point(slot)) break;
          view.type = r.type;
          view.vertex = r.vertex;
          view.edge = r.edge;
          view.payload = batch->PayloadOf(r);
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
        for (const EventRecord& r : records) {
          if (sampled && first) span_start = clock.Now();
          const Timestamp slot = rate.NextDeadline();
          if (!rate.Due(slot) && !wait_point(slot)) break;
          scratch.type = r.type;
          scratch.vertex = r.vertex;
          scratch.edge = r.edge;
          scratch.payload.assign(batch->arena, r.payload_offset,
                                 r.payload_len);
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
      lane.input.Recycle(std::move(*batch));
      if (!emit.ok()) {
        lane.status = emit.WithContext("shard " + std::to_string(shard));
        sink_failed.store(true, std::memory_order_release);
        // The reader's next hand-over to this lane fails instead of
        // waiting, and the other lanes stop waiting for it at barriers.
        lane.input.Stop();
        barrier.Drop();
        break;
      }
      if (IsBarrierToken(last)) {
        barrier.ArriveAndWait(complete_barrier);
        // The reader broadcasts controls only when they are honored.
        if (IsControl(last.type)) {
          rate.ApplyControl(last.type, last.rate_factor, last.pause);
        }
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

  // --- Reader: pull, partition, batch. ----------------------------------
  // The command goes to the barrier first; each lane's token then follows
  // every graph event handed to that lane before it, in the same flushed
  // batch or an earlier one. A failed lane's hand-off never blocks.
  auto broadcast = [&](const BarrierCmd& cmd) {
    barrier.Post(cmd);
    const EventType token = cmd.kind == BarrierCmd::Kind::kControl
                                ? cmd.control
                                : EventType::kMarker;
    for (const std::unique_ptr<LaneState>& lane : lanes) {
      (void)(lane->input.Add(token, 0, EdgeId{}, {}, cmd.rate_factor,
                             cmd.pause) &&
             lane->input.Flush());
    }
  };

  Status reader_status;
  bool cancelled = false;
  bool stopped = false;
  uint64_t to_skip = skip_entries;
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
    Result<std::optional<EventView>> next = source.Next();
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
        broadcast(cmd);
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
      broadcast(cmd);
      continue;
    }

    // Global shard first: every process counts every event (checkpoint
    // cadence, sequence numbers and epochs stay fleet-identical); only
    // the owner of the hash slot emits it.
    const size_t g = ShardOfEvent(e.type, e.vertex, e.edge, hash_shards);
    if (g >= shard_offset && g - shard_offset < shards) {
      (void)lanes[g - shard_offset]->input.Add(e.type, e.vertex, e.edge,
                                               e.payload, e.rate_factor,
                                               e.pause, events_enqueued);
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
      broadcast(cmd);
    }
    if (stop_at != 0 && events_enqueued >= stop_at) {
      stopped = true;
      break;
    }
  }

  source.Stop();
  // Drain: everything already enqueued (and counted) must reach its sink
  // before the final accounting — that is what makes the post-run
  // checkpoint exactly-once even for cancel/stop aborts.
  for (size_t s = 0; s < shards; ++s) lanes[s]->input.Close();
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
