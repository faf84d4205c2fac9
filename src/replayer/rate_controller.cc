#include "replayer/rate_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

namespace graphtides {

RateController::RateController(double base_rate_eps, const Clock* clock)
    : base_rate_eps_(base_rate_eps), clock_(clock) {
  assert(base_rate_eps > 0.0);
}

void RateController::SetFactor(double factor) {
  if (factor <= 0.0) return;
  // Re-anchor so the new interval applies from the previous deadline:
  // SET_RATE takes effect on the very next emission, and the fractional
  // schedule restarts cleanly at the rate-change point.
  if (started_) {
    anchor_ = prev_deadline_;
    events_since_anchor_ = 0;
  }
  factor_ = factor;
}

void RateController::Retarget(double rate_eps) {
  if (rate_eps <= 0.0) return;
  if (started_) {
    // No burst catch-up: when emission lags, prev_deadline_ is in the
    // past; anchoring there would schedule the first new-rate deadlines
    // in the past too and the emitter would blast through them. The last
    // observed clock value is the latest instant proven to have passed —
    // anchoring at whichever is later keeps an ahead-of-schedule run
    // seamless (anchor = prev deadline, exactly like SetFactor) and turns
    // a lagging run into "resume at the new rate from now".
    anchor_ = std::max(prev_deadline_, observed_now_);
    prev_deadline_ = anchor_;
    events_since_anchor_ = 0;
  }
  base_rate_eps_ = rate_eps;
  factor_ = 1.0;
}

void RateController::Defer(Duration pause) { pending_defer_ += pause; }

Timestamp RateController::NextDeadline() {
  Timestamp deadline;
  if (!started_) {
    observed_now_ = clock_->Now();
    deadline = observed_now_ + pending_defer_;
    anchor_ = deadline;
    events_since_anchor_ = 0;
    started_ = true;
  } else {
    ++events_since_anchor_;
    deadline = anchor_ +
               Duration::FromNanos(static_cast<int64_t>(std::llround(
                   static_cast<double>(events_since_anchor_) *
                   IntervalNanos()))) +
               pending_defer_;
    if (pending_defer_ != Duration::Zero()) {
      // A pause shifts the whole schedule; restart the fractional count at
      // the deferred deadline.
      anchor_ = deadline;
      events_since_anchor_ = 0;
    }
  }
  pending_defer_ = Duration::Zero();
  prev_deadline_ = deadline;
  return deadline;
}

Timestamp RateController::WaitForNextSlot() {
  const Timestamp deadline = NextDeadline();
  // Lag fast path: time already observed at/past the deadline means the
  // slot is open — no clock read. When replay runs behind schedule this
  // releases whole stretches of slots off one observation (~35 ns per
  // steady_clock read saved per event on a typical VM).
  if (!Due(deadline)) WaitUntil(deadline);
  return deadline;
}

void RateController::WaitUntil(Timestamp deadline) {
  // Two-stage wait: yield while far from the deadline, spin when close.
  // Yielding keeps the reader thread runnable on loaded machines; the final
  // busy-wait gives microsecond-precision release times.
  constexpr Duration kSpinWindow = Duration::FromMicros(50);
  while (true) {
    const Timestamp now = clock_->Now();
    observed_now_ = now;
    if (now >= deadline) break;
    if (deadline - now > kSpinWindow) {
      std::this_thread::yield();
    }
    // else: pure busy-wait
  }
}

Duration RateController::Lag() const {
  if (!started_) return Duration::Zero();
  const Timestamp upcoming =
      anchor_ +
      Duration::FromNanos(static_cast<int64_t>(
          std::llround(static_cast<double>(events_since_anchor_ + 1) *
                       IntervalNanos()))) +
      pending_defer_;
  const Timestamp now = clock_->Now();
  return now >= upcoming ? now - upcoming : Duration::Zero();
}

}  // namespace graphtides
