// RateController: paces event emission at a uniform, tunable rate (§5.1:
// "emitting stream events is handled by a dedicated thread that uses high
// precision timestamps and busy-waiting for timeliness").
#ifndef GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_
#define GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_

#include <cstdint>

#include "common/clock.h"

namespace graphtides {

/// \brief Computes and enforces per-event emission deadlines.
///
/// The schedule is deadline-based rather than sleep-based: the next
/// deadline advances by exactly one interval per event, so transient delays
/// are caught up instead of accumulating drift. SET_RATE control events map
/// to SetFactor, PAUSE control events to Defer.
///
/// Deadlines are computed as anchor + k * interval with the interval held
/// in fractional nanoseconds, not by repeatedly adding a truncated integer
/// interval — per-event truncation would otherwise accumulate without bound
/// (e.g. a 3x factor at 1 kHz truncates 1/3 ns per event, several µs of
/// schedule drift over a 10k-event run). SetFactor/Defer re-anchor the
/// schedule at the previous deadline, so rate changes stay exact too.
class RateController {
 public:
  /// `base_rate_eps` is the initial rate in events per second (factor 1.0).
  RateController(double base_rate_eps, const Clock* clock);

  /// Changes the speed-up factor (1.0 = base rate).
  void SetFactor(double factor);
  double factor() const { return factor_; }
  double current_rate_eps() const { return base_rate_eps_ * factor_; }

  /// \brief Changes the base rate mid-run (capacity search): the new
  /// interval applies from the next emission, re-anchored like SetFactor
  /// so the fractional schedule stays exact.
  ///
  /// Unlike SetFactor (driven by in-stream SET_RATE controls, which arrive
  /// paced), Retarget is driven externally and can land while emission
  /// lags the schedule — deadlines in the past. Re-anchoring at the stale
  /// previous deadline would put the whole new-rate schedule in the past
  /// and release a catch-up burst at unbounded speed; Retarget therefore
  /// anchors at max(previous deadline, last observed time), so the new
  /// rate takes effect from "now" without a burst and without drifting
  /// the anchored-deadline spacing. The speed-up factor resets to 1.0, so
  /// a later SET_RATE control scales the new base.
  void Retarget(double rate_eps);

  /// Pushes the schedule into the future (PAUSE control event).
  void Defer(Duration pause);

  /// Blocks (busy-waits near the deadline) until the next emission slot,
  /// then advances the schedule. Returns the deadline that was enforced.
  /// Equivalent to NextDeadline() followed by WaitUntil() unless Due().
  Timestamp WaitForNextSlot();

  /// Advances the schedule and returns the deadline for the next event,
  /// without waiting (virtual-time callers advance their own clock).
  Timestamp NextDeadline();

  /// \brief True when `deadline` has passed; false means the caller is
  /// ahead of schedule and must WaitUntil(deadline).
  ///
  /// Reads the clock only when no clock value observed so far proves the
  /// deadline passed. The clock is monotone, so when emission lags the
  /// schedule one read releases a whole stretch of slots: a saturated
  /// replay pays one clock read per stretch, not per event.
  bool Due(Timestamp deadline) {
    if (observed_now_ >= deadline) return true;
    observed_now_ = clock_->Now();
    return observed_now_ >= deadline;
  }

  /// Blocks until `deadline`: yields while far from it, busy-waits within
  /// the last 50 us.
  void WaitUntil(Timestamp deadline);

  /// Positive when emission lags behind the schedule.
  Duration Lag() const;

 private:
  double IntervalNanos() const { return 1e9 / (base_rate_eps_ * factor_); }

  double base_rate_eps_;
  double factor_ = 1.0;
  const Clock* clock_;
  /// Schedule origin: deadlines are anchor_ + round(k * interval).
  Timestamp anchor_;
  /// Events scheduled since the last re-anchor.
  int64_t events_since_anchor_ = 0;
  Timestamp prev_deadline_;
  Duration pending_defer_;
  /// Largest clock value observed so far; deadlines at/below it have
  /// provably passed without another clock read.
  Timestamp observed_now_;
  bool started_ = false;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_RATE_CONTROLLER_H_
