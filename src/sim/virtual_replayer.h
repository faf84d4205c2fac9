// VirtualReplayer: the graph stream replayer transposed into virtual time.
// It paces through the same RateController as a ShardedReplayer lane, on
// the simulator's clock instead of the wall clock, so both follow one
// emission contract (DESIGN.md §5): graph events on the anchored uniform
// schedule, SET_RATE from the next emission, PAUSE deferring the schedule,
// and markers stamped right after the graph event before them. Simulated
// SUT experiments thus see the golden replay's timing, deterministically
// and fast.
//
// As the emitter it also owns marker visibility (§4.5 watermark pattern):
// it queues each marker with its send instant and the number of graph
// events before it, and turns it into a latency sample once the caller
// reports that many events applied.
#ifndef GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_
#define GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "replayer/rate_controller.h"
#include "sim/simulator.h"
#include "stream/event.h"

namespace graphtides {

/// \brief Ingestion-to-visibility latency of one in-stream marker: from the
/// instant the marker passed the replayer to the instant the SUT was
/// observed to have applied every graph event that preceded it.
struct MarkerLatencySample {
  std::string label;
  Timestamp sent;
  Duration latency;
};

/// \brief Schedules a stream's events onto a Simulator.
class VirtualReplayer {
 public:
  /// Delivery of one graph event (with its stream index).
  using DeliverFn = std::function<void(const Event&, size_t index)>;
  /// A marker passed the emitter.
  using MarkerFn = std::function<void(const std::string& label)>;
  using DoneFn = std::function<void()>;

  /// Emits at `base_rate_eps` graph events per second (SET_RATE factor 1).
  VirtualReplayer(Simulator* sim, double base_rate_eps)
      : sim_(sim), rate_(base_rate_eps, sim->clock()) {}

  /// Starts emission at the current virtual time; call once. Events are
  /// emitted as the simulator runs; `on_done` fires after the last entry.
  void Start(std::vector<Event> events, DeliverFn deliver,
             MarkerFn on_marker = {}, DoneFn on_done = {});

  /// \brief Backpressure gate (§3.2: "the flow control mechanism of TCP
  /// can be used to indicate overload").
  ///
  /// When set and returning false, the schedule is deferred by 1 ms and
  /// the gate re-checked — the consumer backthrottles the replayer instead
  /// of buffering unboundedly. The schedule resumes from the moment the
  /// gate opens (no burst catch-up).
  void SetGate(std::function<bool()> gate) { gate_ = std::move(gate); }

  /// Total time spent throttled by the gate.
  Duration throttled_time() const { return throttled_; }

  size_t events_delivered() const { return delivery_times_.size(); }
  /// Virtual emission time of each delivered graph event, in stream order.
  const std::vector<Timestamp>& delivery_times() const {
    return delivery_times_;
  }
  bool finished() const { return finished_; }
  Timestamp finished_at() const { return finished_at_; }

  /// Reports that the SUT has applied `applied` graph events by now: every
  /// queued marker with at most that many graph events before it becomes
  /// visible, with its latency measured to the current virtual time.
  void ObserveApplied(uint64_t applied);
  /// Markers observed visible so far, in stream order.
  const std::vector<MarkerLatencySample>& visible_markers() const {
    return visible_markers_;
  }
  /// Send instants of the markers emitted but not yet visible, in stream
  /// order.
  std::vector<Timestamp> PendingMarkerSends() const;

 private:
  /// Consumes the markers and controls before the next graph event, then
  /// schedules that event at its slot (or finishes the stream).
  void ScheduleNext();
  void Emit();

  Simulator* sim_;
  RateController rate_;
  std::vector<Event> events_;
  DeliverFn deliver_;
  MarkerFn on_marker_;
  DoneFn on_done_;

  size_t cursor_ = 0;
  std::vector<Timestamp> delivery_times_;
  bool finished_ = false;
  Timestamp finished_at_;
  std::function<bool()> gate_;
  Duration throttled_;

  struct PendingMarker {
    std::string label;
    uint64_t events_before = 0;
    Timestamp sent;
  };
  std::deque<PendingMarker> pending_markers_;
  std::vector<MarkerLatencySample> visible_markers_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_VIRTUAL_REPLAYER_H_
