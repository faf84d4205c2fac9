// Deterministic discrete-event simulator. The simulated systems under test
// (weaverlite, chronolite) and their experiment harnesses run on this
// substrate: virtual time makes multi-hundred-second cluster experiments
// reproducible, seedable, and fast, while preserving the queueing and
// contention effects the paper's evaluations observe.
#ifndef GRAPHTIDES_SIM_SIMULATOR_H_
#define GRAPHTIDES_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/clock.h"
#include "sim/callback.h"

namespace graphtides {

/// \brief Event-loop over virtual time.
///
/// Callbacks run in (time, sequence) order: equal timestamps run in
/// scheduling order, which keeps runs deterministic.
///
/// Event storage: each callback lives in a reused slot of a slot array
/// (SimCallback keeps small captures inline), and a binary min-heap of
/// (time, sequence, slot) keys orders them. Scheduling therefore performs
/// no per-event heap allocation once the arrays have grown to the peak
/// number of pending events, and heap sifts move 24-byte keys rather than
/// callbacks.
class Simulator {
 public:
  using Callback = SimCallback;

  Timestamp Now() const { return clock_.Now(); }
  const Clock* clock() const { return &clock_; }

  /// Schedules `cb` at absolute virtual time `t` (clamped to now).
  void ScheduleAt(Timestamp t, Callback cb);
  /// Schedules `cb` after a virtual delay.
  void ScheduleAfter(Duration d, Callback cb) {
    ScheduleAt(Now() + d, std::move(cb));
  }

  /// Runs callbacks until the queue is empty.
  void RunUntilIdle();
  /// Runs callbacks with time <= `t`; then advances the clock to `t`.
  void RunUntil(Timestamp t);
  /// \brief Runs until `deadline`, calling `tick` every `every` from now on
  /// until it reports the system drained (returns true).
  ///
  /// Ticks at now + k * every, never after the one that reported drained
  /// and never past the deadline; the clock ends at the deadline either
  /// way. Returns the first drained instant, nullopt if the run never
  /// drained.
  std::optional<Timestamp> RunSampled(Duration every, Timestamp deadline,
                                      const std::function<bool()>& tick);
  /// Executes the single next callback; false if none left.
  bool Step();

  size_t pending() const { return queue_.size(); }
  uint64_t callbacks_executed() const { return executed_; }

 private:
  struct Key {
    Timestamp time;
    uint64_t seq;
    uint32_t slot;
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  VirtualClock clock_;
  std::priority_queue<Key, std::vector<Key>, KeyLater> queue_;
  /// Callback storage indexed by Key::slot; free slots are reused LIFO.
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_SIMULATOR_H_
