// Resilient delivery: an EventSink decorator that gives any inner sink
// retry with exponential backoff + jitter, transport reconnection, a
// per-delivery timeout, and a configurable degradation policy. This is the
// harness-side half of runtime fault tolerance (§4.1: the test harness must
// survive — and measure — misbehaving systems under test): transient
// failures, peer resets, and overload surface as retries, reconnects, and
// counted drops instead of aborted runs.
#ifndef GRAPHTIDES_REPLAYER_RESILIENT_SINK_H_
#define GRAPHTIDES_REPLAYER_RESILIENT_SINK_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "replayer/event_sink.h"

namespace graphtides {

/// \brief What happens when a delivery's retry budget (or timeout) is
/// exhausted.
enum class DegradationPolicy {
  /// Return the last error; the replayer aborts the run (strictest — the
  /// historic behaviour, but after the configured retries).
  kFailFast,
  /// Drop the event, count it, and report success: the run continues with
  /// a known, measured loss (at-most-once under sustained faults).
  kDropAndCount,
  /// Keep retrying past the budget (capped backoff) until the delivery
  /// succeeds or the per-delivery timeout expires — blocking is the
  /// backpressure channel (§3.2).
  kBlock,
};

/// Parses "fail" / "drop" / "block" (CLI vocabulary).
Result<DegradationPolicy> ParseDegradationPolicy(const std::string& name);
std::string_view DegradationPolicyName(DegradationPolicy policy);

struct ResilientSinkOptions {
  /// Retries per delivery before the degradation policy kicks in
  /// (ignored by kBlock).
  uint32_t retry_budget = 5;
  Duration initial_backoff = Duration::FromMillis(1);
  double backoff_multiplier = 2.0;
  Duration max_backoff = Duration::FromMillis(100);
  /// Uniform jitter as a fraction of the backoff (0.2 = ±20%); decorrelates
  /// retry storms across parallel replayers.
  double jitter = 0.2;
  uint64_t jitter_seed = 7;
  /// Wall-clock budget for one delivery across all its attempts
  /// (zero = unlimited). Expiry is terminal under every policy.
  Duration deliver_timeout = Duration::Zero();
  DegradationPolicy policy = DegradationPolicy::kFailFast;
};

/// \brief Per-run resilience counters.
struct ResilienceStats {
  uint64_t deliveries = 0;
  uint64_t attempts = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t failed_reconnects = 0;
  /// Deliveries abandoned under kDropAndCount.
  uint64_t drops = 0;
  /// Deliveries whose error was returned to the caller.
  uint64_t giveups = 0;
  Duration backoff_time;
};

/// \brief EventSink decorator that retries transient inner failures.
///
/// Retryable codes: Unavailable, IoError, Timeout, CapacityExceeded — and
/// PreconditionFailed when a reconnect hook is present (a disconnected
/// transport reports its state that way). Everything else is a programming
/// error and is returned immediately, regardless of policy.
class ResilientSink final : public EventSink {
 public:
  /// Re-establishes the underlying transport (e.g. TcpSink::Reconnect).
  using ReconnectFn = std::function<Status()>;
  using SleepFn = std::function<void(Duration)>;

  ResilientSink(EventSink* inner, ResilientSinkOptions options,
                ReconnectFn reconnect = {});

  /// Replaces the real sleep (test hook); the backoff_time stat still
  /// accounts the requested durations.
  void set_sleep_fn(SleepFn fn) { sleep_ = std::move(fn); }
  /// Replaces the timeout clock (test hook). Not owned.
  void set_clock(const Clock* clock) { clock_ = clock; }

  Status Deliver(const Event& event) override;
  Status Finish() override { return inner_->Finish(); }
  Status Flush() override { return inner_->Flush(); }
  uint64_t bytes_delivered() const override {
    return inner_->bytes_delivered();
  }
  SinkTelemetry Telemetry() const override;

  const ResilienceStats& stats() const { return stats_; }

  /// \brief The jitter RNG, exposed so a checkpointing replayer can
  /// snapshot and restore it (ShardedReplayerOptions::checkpoint_rng) —
  /// resumed runs then reproduce the exact backoff-jitter sequence.
  Rng* mutable_jitter_rng() { return &jitter_rng_; }

 private:
  /// True for errors worth retrying.
  bool Retryable(const Status& status) const;
  /// Backoff for the given retry ordinal (0-based), jittered and capped.
  Duration BackoffFor(uint32_t retry);

  EventSink* inner_;
  ResilientSinkOptions options_;
  ReconnectFn reconnect_;
  SleepFn sleep_;
  const Clock* clock_;
  MonotonicClock default_clock_;
  Rng jitter_rng_;
  ResilienceStats stats_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_RESILIENT_SINK_H_
