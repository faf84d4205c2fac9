// The graph stream replayer (§4.1, §5.1): replays a stream file or an
// in-memory stream at a uniform, tunable rate, scaled out in-process (§5.2).
// One reader hash-partitions the stream into N per-shard lanes, each
// lane paced by a deadline-based RateController (busy-waiting near
// deadlines) and emitted by its own thread into its own sink — the
// multi-replayer horizontal-scaling setup of §5.2 collapsed into one
// process on one multi-core machine. With one shard it is the paper's
// single replayer: one reader thread, one emitter thread, plus a decode
// thread for file input. Markers are timestamped and logged (not
// delivered); SET_RATE and PAUSE controls retune or suspend emission.
//
// Partitioning and ordering guarantees:
//   * vertex events are routed by hash(vertex id); edge events by
//     hash(source id). All events touching the same source entity
//     serialize through one lane, so per-entity order is preserved and a
//     lane's output is a subsequence of the input stream.
//   * marker and control events are broadcast to every lane together with
//     a cross-shard epoch barrier: every lane finishes emitting all graph
//     events enqueued before the marker/control, then all lanes cross it
//     together. The barrier's token travels in-band, as the last record of
//     a flushed lane batch. Marker semantics ("all events before the marker have been
//     emitted, none after") and SET_RATE/PAUSE positions are therefore
//     identical to a single-lane replay.
//   * every graph event carries its global sequence number (0-based among
//     graph events), delivered to sinks via DeliverSequenced, so per-shard
//     captures can be merged back into total stream order.
//
// Hot path: every hop between pipeline threads is a BatchHandoff
// (replayer/event_batch.h) of 1024-event batches, at most 8 in flight. For
// file input a decode thread runs the format's decoder (the zero-copy
// ParseEventLineView over a BlockLineReader for CSV, the mmap'd
// V2StreamReader for v2) and hands the entries to the reader over one. The
// reader only pops views, counts, routes them and broadcasts barriers: it
// appends each graph event to its lane's hand-off, and blocks while that
// lane's queue is full. Batches are preallocated and recycled, so steady
// state allocates nothing. Lanes either serialize canonical CSV into a
// reusable buffer handed to the sink once per batch (SupportsSerialized
// transports: pipe, TCP) or materialize into one reusable Event for
// decorated sinks. A decode error reaches the reader after every entry
// before it; every way out of a run stops and joins the decode thread.
//
// Wait points: a lane hands its pending events to the sink and accounts
// them (progress counter, achieved-rate bins, lag, telemetry) only where it
// is ahead of schedule and about to wait for the next deadline, and at the
// end of each batch. A paced lane therefore delivers and accounts every
// event at its slot, while a saturated lane, which never waits, does both
// once per batch. A wait point also polls the live rate target and, once
// `cancel` has fired, skips the wait, so a cancelled run drains the
// read-ahead its lanes already hold unpaced; the decode thread's read-ahead
// is dropped.
#ifndef GRAPHTIDES_REPLAYER_SHARDED_REPLAYER_H_
#define GRAPHTIDES_REPLAYER_SHARDED_REPLAYER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "harness/telemetry/latency_histogram.h"
#include "harness/telemetry/run_telemetry.h"
#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"
#include "stream/event.h"
#include "stream/event_view.h"

namespace graphtides {

/// \brief One marker observation: the wall-clock instant the marker passed
/// the emitter lanes, for later correlation (§4.5 "watermark events").
struct MarkerRecord {
  std::string label;
  Timestamp time;
  /// Graph events delivered before this marker.
  size_t events_before = 0;
};

/// \brief Per-bin achieved throughput sample.
struct RateSample {
  Timestamp bin_start;
  size_t events = 0;
};

/// \brief Outcome of one replay run (or of one lane of it).
struct ReplayStats {
  size_t events_delivered = 0;
  size_t markers = 0;
  size_t controls = 0;
  Timestamp started;
  Timestamp finished;
  std::vector<MarkerRecord> marker_log;
  std::vector<RateSample> rate_series;
  /// Emission lag: how far behind its scheduled deadline a delivery
  /// hand-off reached the sink (0 = perfectly timed). Recorded once per
  /// hand-off, i.e. per event when paced and per batch when saturated. The
  /// spread of this distribution is the "range of rates" effect Fig. 3a
  /// reports at high target rates. A fixed-footprint histogram (not raw
  /// samples), so arbitrarily long runs cost constant memory and shard
  /// lanes merge losslessly into the aggregate.
  LatencyHistogram lag;
  /// Runtime-fault telemetry collected from the sink chain (retries,
  /// reconnects, counted drops, injected chaos faults). All zeros for
  /// plain sinks.
  SinkTelemetry telemetry;
  /// Source entries consumed across the whole logical run, including the
  /// segment replayed before a resume checkpoint.
  uint64_t entries_consumed = 0;
  /// True when the run ended at stop_after_events instead of the stream's
  /// end (cancellation instead returns Status::Cancelled).
  bool stopped_early = false;
  /// Checkpoints written during the run (periodic + final).
  uint64_t checkpoints_written = 0;

  Duration Elapsed() const { return finished - started; }
  /// Mean achieved rate over the whole run (events/second).
  double AchievedRateEps() const {
    const double secs = Elapsed().seconds();
    return secs > 0.0 ? static_cast<double>(events_delivered) / secs : 0.0;
  }
};

/// Stable hash-partition of a vertex id over `shards` lanes (splitmix64
/// finalizer, so nearly-sequential generator ids still spread evenly).
size_t ShardOfVertex(VertexId id, size_t shards);

/// Routing rule: vertex ops by vertex id, edge ops by source id (same hash
/// as the source vertex, so edge ops order with their source's vertex
/// ops). Markers/controls have no shard — callers broadcast them.
size_t ShardOfEvent(EventType type, VertexId vertex, const EdgeId& edge,
                    size_t shards);

struct ShardedReplayerOptions {
  /// Number of lanes (and sinks). 1 degenerates to a single-lane pipeline.
  size_t shards = 1;
  /// Aggregate target emission rate in events/second across all lanes;
  /// each lane paces at total_rate_eps / shards (SET_RATE factors apply
  /// per lane, so the aggregate scales the same way).
  double total_rate_eps = 10000.0;
  /// Bin width for the achieved-rate time series.
  Duration stats_bin = Duration::FromMillis(100);
  /// When false, SET_RATE / PAUSE are counted but not applied (and no
  /// barrier is paid for them).
  bool honor_control_events = true;
  /// \brief Preferred wire format offered to every sink before delivery
  /// starts (EventSink::NegotiateWireFormat).
  ///
  /// kCsv (default) skips the handshake entirely. kV2 asks each sink to
  /// carry gt-stream-v2 blocks on the serialized path; a lane whose sink
  /// declines (decorated chains always do) stays on CSV, so formats are
  /// negotiated per sink, not per run.
  WireFormat wire_format = WireFormat::kCsv;

  /// Mid-run offered-rate control (capacity search): the *aggregate*
  /// target in events/s, written by a controller thread. Each lane polls
  /// it at every batch and every wait point and calls
  /// RateController::Retarget(target / shards) on change. The
  /// anchored-deadline schedule is re-anchored at the later of the
  /// previous deadline and now, so lowering the rate never triggers a
  /// catch-up burst and raising it takes effect on the next slot. Values
  /// <= 0 are ignored; not owned.
  const std::atomic<double>* rate_target_eps = nullptr;

  // --- Distributed shard-range replay ----------------------------------
  /// Size of the global hash-partition space (0 = `shards`, the
  /// single-process default). When larger, this process drives only the
  /// lanes for global shards [shard_offset, shard_offset + shards): it
  /// still reads and counts the whole stream (global accounting —
  /// events_delivered, checkpoint cadence, epochs — is identical on every
  /// process), but events hashing outside the range are skipped, so a
  /// fleet of processes over disjoint ranges reproduces the
  /// single-process per-lane output byte-for-byte.
  size_t total_shards = 0;
  /// First global shard this process owns (only with total_shards > 0).
  size_t shard_offset = 0;
  /// \brief Distributed epoch hold point: called inside every marker /
  /// control barrier completion — all local lanes quiesced, nothing past
  /// the epoch emitted — with the global epoch ordinal (1-based count of
  /// markers + honored controls, stable across processes and resumes).
  /// The callback blocks until the cross-process epoch is released; a
  /// non-OK return aborts the run like a cancellation: lanes drain, a
  /// final exact checkpoint is written, and Run returns the hook's
  /// status (the worker's quiesce-and-wait partition rule builds on
  /// this).
  std::function<Status(uint64_t epoch)> epoch_hook;

  // --- Supervision: cancellation + checkpoint/resume -------------------

  /// Cooperative cancellation (e.g. fired by a RunWatchdog). Once fired,
  /// the reader stops, the lanes drain what was already read without
  /// pacing, a final exact checkpoint is written (if checkpointing is
  /// configured), the sinks are finished, and Replay returns
  /// Status::Cancelled.
  const CancellationToken* cancel = nullptr;
  /// Write a checkpoint every N enqueued graph events via a cross-shard
  /// checkpoint barrier (0 = disabled): all lanes quiesce at the barrier,
  /// so the record is exactly-once — every counted event was acknowledged
  /// by its sink, none past the barrier was emitted.
  uint64_t checkpoint_every = 0;
  /// Destination for checkpoints (atomic replace). Required when
  /// checkpoint_every > 0 or `cancel` should leave a resumable record.
  std::string checkpoint_path;
  /// Stop cleanly after this many graph events (counted from the resume
  /// base; 0 = run to end of stream) and flush a final checkpoint. Models
  /// a controlled kill for resume tests and drills.
  uint64_t stop_after_events = 0;
  /// RNG whose state is snapshotted into checkpoints and restored on
  /// resume (e.g. the resilient sink's jitter RNG). Optional, not owned.
  Rng* checkpoint_rng = nullptr;
  /// Rotated checkpoint generations kept at checkpoint_path (>= 1). With
  /// more than one, a torn/corrupt newest record falls back to an intact
  /// ancestor on load (CheckpointStore::LoadLatestGood).
  size_t checkpoint_generations = 1;
  /// When true, checkpoints flush every lane's sink and record per-shard
  /// cumulative flushed byte counts (ReplayCheckpoint::sink_bytes) so a
  /// resume over per-shard output files can truncate each file back to
  /// the checkpointed offset. Resuming then requires the same shard count
  /// the checkpoint was written with.
  bool record_sink_bytes = false;

  // --- Live telemetry --------------------------------------------------

  /// Optional telemetry hub (not owned); must be built with at least
  /// `shards` slots. Each lane records sampled per-stage spans and its
  /// delivered/fault counters into its own slot (sampling is 1-in-N
  /// delivery hand-offs, so 1-in-N events when paced and 1-in-N batches
  /// when saturated); the decoder (the decode thread for file input, the
  /// reader for in-memory input) records read-stage spans into slot 0, and
  /// marker sends feed the hub's correlator. No-op under
  /// -DGT_TELEMETRY_OFF.
  RunTelemetry* telemetry = nullptr;
};

/// \brief Outcome of a sharded run: the merged aggregate plus each lane's
/// own stats (its sink's telemetry, its delivered count, its lag samples).
struct ShardedReplayStats {
  ReplayStats aggregate;
  std::vector<ReplayStats> per_shard;
};

/// \brief Replays one stream against N sinks, one lane per sink.
///
/// Replay/ReplayFile block until the stream is exhausted or the run fails.
/// `sinks.size()` must equal `options.shards`; each sink is driven only by
/// its own lane thread.
///
/// With `resume`, emission starts at the checkpoint's stream offset and
/// all counters (events_delivered, markers, controls, telemetry baseline,
/// rate factor, checkpoint RNG) continue from the checkpointed values, so
/// the final stats match an uninterrupted run; started/finished and the
/// rate/lag series cover only the resumed segment.
class ShardedReplayer {
 public:
  explicit ShardedReplayer(ShardedReplayerOptions options)
      : options_(options) {}

  Result<ShardedReplayStats> Replay(const std::vector<Event>& events,
                                    const std::vector<EventSink*>& sinks,
                                    const ReplayCheckpoint* resume = nullptr);

  /// Streams a file (CSV or v2, by magic) without loading it, decoding on
  /// its own thread.
  Result<ShardedReplayStats> ReplayFile(
      const std::string& path, const std::vector<EventSink*>& sinks,
      const ReplayCheckpoint* resume = nullptr);

  /// Graph events delivered so far across all lanes (cumulative across a
  /// resume); the liveness probe a RunWatchdog polls.
  uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Graph events delivered by THIS process's lanes (cumulative across a
  /// resume via ReplayCheckpoint::local_events). Equals progress() minus
  /// the global resume base in single-process runs; in shard-range runs it
  /// is the range's share of the stream — what exactly-once accounting
  /// sums across a fleet.
  uint64_t local_delivered() const {
    return local_delivered_.load(std::memory_order_relaxed);
  }

 private:
  /// Replays what `source` yields: Next() returns a borrowed view, valid
  /// until the next call (nullopt at end of stream, or a decode error), and
  /// Stop() is called once the reader pulls no more. The reader runs on the
  /// calling thread.
  template <typename Source>
  Result<ShardedReplayStats> Run(Source& source,
                                 const std::vector<EventSink*>& sinks,
                                 const ReplayCheckpoint* resume);

  ShardedReplayerOptions options_;
  std::atomic<uint64_t> progress_{0};
  std::atomic<uint64_t> local_delivered_{0};
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_SHARDED_REPLAYER_H_
