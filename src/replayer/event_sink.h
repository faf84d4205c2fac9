// Event sinks: where the replayer delivers the stream. Platform-specific
// connectors (§3.3, §4.1) implement this interface; the framework ships a
// callback sink (in-process SUTs), a pipe/stdio sink, and a TCP sink
// matching the paper's replayer evaluation setups (Table 2).
#ifndef GRAPHTIDES_REPLAYER_EVENT_SINK_H_
#define GRAPHTIDES_REPLAYER_EVENT_SINK_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "harness/telemetry/snapshot.h"
#include "stream/event.h"
#include "stream/v2_format.h"

namespace graphtides {

/// \brief Wire encodings a byte-oriented sink can carry.
///
/// kCsv is '\n'-terminated canonical CSV lines — the interchange/golden
/// format every transport speaks. kV2 is gt-stream-v2 sealed blocks
/// (stream/v2_format.h): preamble on negotiation, blocks per batch,
/// end-of-stream sentinel at Finish.
enum class WireFormat : uint8_t { kCsv = 0, kV2 = 1 };

/// \brief Runtime-fault telemetry accumulated along a sink chain.
///
/// Decorator sinks (faults/ChaosSink, ResilientSink) report what happened
/// on the delivery path during a run; ShardedReplayer copies the chain's
/// telemetry into ReplayStats so fault behaviour is measurable end to end
/// (§4.3 streaming metrics, extended to the delivery dimension).
struct SinkTelemetry {
  // Resilience layer (replayer/resilient_sink.h).
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t drops_after_retry = 0;
  uint64_t giveups = 0;
  /// Total time spent sleeping in retry backoff, seconds.
  double backoff_s = 0.0;
  // Chaos layer (faults/chaos_sink.h).
  uint64_t injected_failures = 0;
  uint64_t injected_disconnects = 0;
  uint64_t injected_stalls = 0;
  uint64_t injected_latency_spikes = 0;
  /// Total injected stall + latency-spike time, seconds.
  double stall_s = 0.0;

  /// Field-wise sum; used to fold a decorated sink's own counters into its
  /// inner sink's.
  SinkTelemetry& Merge(const SinkTelemetry& other);
  std::string ToString() const;
};

/// Projects sink-chain counters into the live-telemetry schema (injected
/// stalls and latency spikes are already folded into stall_s).
inline DeliveryCounters ToDeliveryCounters(const SinkTelemetry& t) {
  DeliveryCounters c;
  c.retries = t.retries;
  c.reconnects = t.reconnects;
  c.drops_after_retry = t.drops_after_retry;
  c.giveups = t.giveups;
  c.injected_failures = t.injected_failures;
  c.injected_disconnects = t.injected_disconnects;
  c.backoff_s = t.backoff_s;
  c.stall_s = t.stall_s;
  return c;
}

/// \brief Destination for replayed graph events.
///
/// Deliver may block — blocking is the natural backpressure channel (§3.2:
/// "the flow control mechanism of TCP can be used to indicate overload").
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Delivers one graph event. Called from the replayer's emitter thread.
  virtual Status Deliver(const Event& event) = 0;

  /// \brief Delivery tagged with the event's global stream sequence number
  /// (0-based position among the source's graph events).
  ///
  /// The sharded replayer uses this so per-shard capture sinks can merge
  /// their outputs back into total stream order. The default forwards to
  /// Deliver, so ordinary sinks and decorators need not care.
  virtual Status DeliverSequenced(const Event& event, uint64_t seq) {
    (void)seq;
    return Deliver(event);
  }

  /// \brief True when this sink can accept pre-serialized CSV event lines
  /// via DeliverSerialized — the zero-copy fast path for byte-oriented
  /// transports (pipe, TCP). Decorator sinks must NOT advertise support:
  /// the per-event Deliver path is where faults and retries are applied.
  virtual bool SupportsSerialized() const { return false; }

  /// \brief Delivers a batch of `count` events pre-serialized as
  /// '\n'-terminated canonical CSV lines. Only called when
  /// SupportsSerialized() is true.
  virtual Status DeliverSerialized(std::string_view lines, size_t count) {
    (void)lines;
    (void)count;
    return Status::Internal("sink does not support serialized delivery");
  }

  /// \brief Per-sink wire-format negotiation (the pipe/TCP "handshake").
  ///
  /// The replayer offers its preferred wire format once, before any
  /// delivery; the sink answers with what it will actually carry. The
  /// default — and the only answer decorators may give — is kCsv: faults
  /// and retries operate on the per-event path, so anything wrapped stays
  /// on the golden CSV form. A transport that answers kV2 emits the v2
  /// preamble immediately, expects DeliverSerialized batches to be sealed
  /// v2 blocks, and appends the end-of-stream sentinel in Finish().
  virtual Result<WireFormat> NegotiateWireFormat(WireFormat preferred) {
    (void)preferred;
    return WireFormat::kCsv;
  }

  /// Called once after the last event.
  virtual Status Finish() { return Status::OK(); }

  /// \brief Pushes buffered bytes to the OS. The replayer calls this
  /// before recording a checkpoint so a crash immediately after cannot
  /// lose output the checkpoint counts as delivered. Unbuffered sinks
  /// need not override.
  virtual Status Flush() { return Status::OK(); }

  /// \brief Cumulative payload bytes this sink has accepted (0 when the
  /// transport does not account bytes). Decorators forward to their inner
  /// sink. With Flush(), this is what checkpoint `sink_bytes` records.
  virtual uint64_t bytes_delivered() const { return 0; }

  /// Fault telemetry for this sink and everything it wraps. Plain
  /// transports report nothing.
  virtual SinkTelemetry Telemetry() const { return {}; }
};

/// \brief Invokes a user function per event (in-process connector).
class CallbackSink final : public EventSink {
 public:
  explicit CallbackSink(std::function<Status(const Event&)> fn)
      : fn_(std::move(fn)) {}

  Status Deliver(const Event& event) override { return fn_(event); }

 private:
  std::function<Status(const Event&)> fn_;
};

/// \brief Writes CSV event lines to a stdio stream (e.g. stdout for the
/// Table 2 "Pipe: STDOUT to STDIN" setup). Does not own the FILE*.
class PipeSink final : public EventSink {
 public:
  explicit PipeSink(std::FILE* out) : out_(out) {}

  /// Opt-in to v2 wire delivery: a later NegotiateWireFormat(kV2) is
  /// answered with kV2 (without this call the answer stays kCsv). Call
  /// before the replayer starts.
  void EnableV2Wire() { allow_v2_ = true; }

  Status Deliver(const Event& event) override;
  /// One fwrite for the whole batch. stdio locks the FILE internally, so
  /// several shard lanes may share one FILE* and lines stay whole.
  bool SupportsSerialized() const override { return true; }
  Status DeliverSerialized(std::string_view lines, size_t count) override;
  Result<WireFormat> NegotiateWireFormat(WireFormat preferred) override;
  Status Finish() override;
  Status Flush() override;
  uint64_t bytes_delivered() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// Writes `data` through the FaultPlan write gate: an armed ENOSPC or
  /// short-write fault clips the write and returns IoError after the
  /// allowed prefix hit the stream.
  Status WriteBytes(std::string_view data);

  std::FILE* out_;
  std::string line_buf_;  // reused across Deliver calls
  std::atomic<uint64_t> bytes_{0};
  bool allow_v2_ = false;
  WireFormat wire_ = WireFormat::kCsv;
  bool sentinel_written_ = false;
  V2BlockEncoder v2_encoder_;  // per-event fallback when wire_ is kV2
};

/// \brief Discards events (replayer self-benchmarking).
class NullSink final : public EventSink {
 public:
  Status Deliver(const Event&) override { return Status::OK(); }
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_EVENT_SINK_H_
