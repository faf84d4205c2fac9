// VirtualReplayer: the graph stream replayer transposed into virtual time.
// Emission follows the same semantics as a ShardedReplayer lane — uniform
// base rate, SET_RATE speed-up factors, PAUSE suspensions, marker logging —
// but deadlines are simulator timestamps instead of busy-waited wall-clock
// instants, so simulated SUT experiments run deterministically and fast.
#ifndef GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_
#define GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_

#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "stream/event.h"

namespace graphtides {

struct VirtualReplayerOptions {
  double base_rate_eps = 2000.0;
  bool honor_control_events = true;
  /// Backoff before re-checking a closed backpressure gate.
  Duration gate_backoff = Duration::FromMillis(1);
};

/// \brief Schedules a stream's events onto a Simulator.
class VirtualReplayer {
 public:
  /// Delivery of one graph event (with its stream index).
  using DeliverFn = std::function<void(const Event&, size_t index)>;
  /// A marker passed the emitter.
  using MarkerFn = std::function<void(const std::string& label)>;
  using DoneFn = std::function<void()>;

  VirtualReplayer(Simulator* sim, VirtualReplayerOptions options)
      : sim_(sim), options_(options) {}

  /// Starts emission at the current virtual time. Events are emitted as
  /// the simulator runs; `on_done` fires after the last entry.
  void Start(std::vector<Event> events, DeliverFn deliver,
             MarkerFn on_marker = {}, DoneFn on_done = {});

  /// \brief Backpressure gate (§3.2: "the flow control mechanism of TCP
  /// can be used to indicate overload").
  ///
  /// When set and returning false, emission of the next graph event is
  /// deferred by `gate_backoff` and the gate re-checked — the consumer
  /// backthrottles the replayer instead of buffering unboundedly. The
  /// schedule resumes from the moment the gate opens (no burst catch-up).
  void SetGate(std::function<bool()> gate) { gate_ = std::move(gate); }

  /// Total time spent throttled by the gate.
  Duration throttled_time() const { return throttled_; }

  size_t events_delivered() const { return delivered_; }
  /// Virtual emission time of each delivered graph event, in stream order.
  const std::vector<Timestamp>& delivery_times() const {
    return delivery_times_;
  }
  bool finished() const { return finished_; }
  Timestamp finished_at() const { return finished_at_; }

 private:
  void EmitNext();

  Simulator* sim_;
  VirtualReplayerOptions options_;
  std::vector<Event> events_;
  DeliverFn deliver_;
  MarkerFn on_marker_;
  DoneFn on_done_;

  size_t cursor_ = 0;
  size_t delivered_ = 0;
  double factor_ = 1.0;
  Timestamp next_deadline_;
  std::vector<Timestamp> delivery_times_;
  bool finished_ = false;
  Timestamp finished_at_;
  std::function<bool()> gate_;
  Duration throttled_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_
