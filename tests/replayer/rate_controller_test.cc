#include "replayer/rate_controller.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace graphtides {
namespace {

// Takes one paced slot the way a replay lane does: the next deadline,
// waited for only when the clock has not already proven it passed.
Timestamp TakeSlot(RateController* rate) {
  const Timestamp deadline = rate->NextDeadline();
  if (!rate->Due(deadline)) rate->WaitUntil(deadline);
  return deadline;
}

// NextDeadline against a virtual clock exercises the scheduling math
// without wall-clock flakiness.
TEST(RateControllerTest, DeadlinesUniformAtBaseRate) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  const Timestamp first = rate.NextDeadline();
  EXPECT_EQ(first.nanos(), 0);
  for (int i = 1; i <= 10; ++i) {
    EXPECT_EQ(rate.NextDeadline().nanos(), i * 1000000);
  }
}

TEST(RateControllerTest, FactorScalesInterval) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t=0
  rate.SetFactor(2.0);  // 0.5 ms interval
  EXPECT_EQ(rate.NextDeadline().nanos(), 500000);
  EXPECT_EQ(rate.NextDeadline().nanos(), 1000000);
  rate.SetFactor(0.5);  // 2 ms interval
  EXPECT_EQ(rate.NextDeadline().nanos(), 3000000);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 500.0);
}

TEST(RateControllerTest, InvalidFactorIgnored) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.SetFactor(0.0);
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
  rate.SetFactor(-2.0);
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
}

TEST(RateControllerTest, DeferPushesSchedule) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // 0; next = 1ms
  rate.Defer(Duration::FromMillis(20));
  EXPECT_EQ(rate.NextDeadline().nanos(), 21000000);
}

TEST(RateControllerTest, ApplyControlMapsSetRateAndPause) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  rate.ApplyControl(EventType::kSetRate, 2.0, Duration::Zero());
  EXPECT_DOUBLE_EQ(rate.factor(), 2.0);
  EXPECT_EQ(rate.NextDeadline().nanos(), 500000);
  rate.ApplyControl(EventType::kPause, 1.0, Duration::FromMillis(10));
  EXPECT_DOUBLE_EQ(rate.factor(), 2.0);
  EXPECT_EQ(rate.NextDeadline().nanos(), 11000000);
  // Graph events and markers carry no control.
  rate.ApplyControl(EventType::kMarker, 4.0, Duration::FromMillis(10));
  EXPECT_EQ(rate.NextDeadline().nanos(), 11500000);
}

TEST(RateControllerTest, DeferBeforeStartAnchorsToNow) {
  VirtualClock clock;
  clock.Advance(Duration::FromMillis(5));
  RateController rate(1000.0, &clock);
  rate.Defer(Duration::FromMillis(10));
  EXPECT_EQ(rate.NextDeadline().nanos(), 15000000);
}

// Drift audit: with a fractional interval (1e9 / rate not an integer
// nanosecond count), the schedule must stay anchored to k * interval
// instead of accumulating a per-event truncation error. Repeatedly adding
// a truncated integer interval would drift by ~1/3 ns per event here —
// several microseconds over the run — while the anchored schedule stays
// within rounding (±0.5 ns) of the ideal for any k.
TEST(RateControllerTest, NoCumulativeDriftOnFractionalIntervals) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();      // t = 0 anchors the schedule
  rate.SetFactor(3.0);      // 333333.33... ns interval
  const int events = 10000;
  Timestamp last;
  for (int i = 0; i < events; ++i) last = rate.NextDeadline();
  const double ideal_nanos = events * (1e9 / 3000.0);
  EXPECT_NEAR(static_cast<double>(last.nanos()), ideal_nanos, 1.0)
      << "cumulative drift " << (ideal_nanos - last.nanos()) << " ns";
}

TEST(RateControllerTest, NoCumulativeDriftAtHighRate) {
  // 3 MHz schedule: a 333.33 ns interval truncated to 333 ns would lose
  // 33 us over 100k events; the anchored schedule must not.
  VirtualClock clock;
  RateController rate(3.0e6, &clock);
  const int events = 100000;
  Timestamp last;
  for (int i = 0; i < events; ++i) last = rate.NextDeadline();
  const double ideal_nanos = (events - 1) * (1e9 / 3.0e6);
  EXPECT_NEAR(static_cast<double>(last.nanos()), ideal_nanos, 1.0)
      << "cumulative drift " << (ideal_nanos - last.nanos()) << " ns";
}

TEST(RateControllerTest, FactorChangesKeepScheduleExact) {
  // Re-anchoring at SetFactor must not inherit drift from the previous
  // segment nor introduce a discontinuity beyond rounding.
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  Timestamp last;
  double ideal = 0.0;
  const double factors[] = {3.0, 7.0, 1.0, 0.3};
  for (const double factor : factors) {
    rate.SetFactor(factor);
    for (int i = 0; i < 1000; ++i) last = rate.NextDeadline();
    ideal += 1000 * (1e9 / (1000.0 * factor));
    EXPECT_NEAR(static_cast<double>(last.nanos()), ideal, 2.0)
        << "after factor " << factor;
    // Re-sync the ideal to the rounded actual so per-segment rounding
    // (sub-ns) does not accumulate into the comparison itself.
    ideal = static_cast<double>(last.nanos());
  }
}

TEST(RateControllerTest, WallClockWaitHitsTargetRate) {
  MonotonicClock clock;
  RateController rate(20000.0, &clock);  // 50 us interval
  const Timestamp start = clock.Now();
  const int events = 2000;
  for (int i = 0; i < events; ++i) TakeSlot(&rate);
  const double elapsed = (clock.Now() - start).seconds();
  const double achieved = events / elapsed;
  // Within 15% of the 20k target on a loaded CI machine.
  EXPECT_NEAR(achieved, 20000.0, 3000.0);
}

TEST(RateControllerTest, WaitNeverReturnsEarly) {
  MonotonicClock clock;
  RateController rate(50000.0, &clock);
  for (int i = 0; i < 100; ++i) {
    const Timestamp deadline = TakeSlot(&rate);
    EXPECT_GE(clock.Now(), deadline);
  }
}

// ---------------------------------------------------------------------------
// Clock-jump properties. The schedule is anchor + k*interval, consulted
// against the clock only inside the wait loop — so a clock that leaps
// forward must cause bounded catch-up (not drift), and one that leaps
// backward must cause a longer wait (never a livelock, never a deadline
// that recedes, never a "negative sleep" where the controller tries to
// schedule into the past).
// ---------------------------------------------------------------------------

// A settable clock for jump tests. Each Now() also ticks time forward a
// little, the way a real clock advances while the wait loop polls it —
// without the tick, TakeSlot against a frozen clock would spin
// forever after a backward jump.
class JumpClock final : public Clock {
 public:
  explicit JumpClock(Duration tick) : tick_(tick) {}

  Timestamp Now() const override {
    now_ = now_ + tick_;
    ++reads_;
    return now_;
  }

  /// Moves the clock by `d`, forward or backward.
  void Jump(Duration d) { now_ = now_ + d; }
  uint64_t reads() const { return reads_; }

 private:
  Duration tick_;
  mutable Timestamp now_;
  mutable uint64_t reads_ = 0;
};

TEST(RateControllerTest, ForwardClockJumpCatchesUpWithoutScheduleDrift) {
  JumpClock clock(Duration::FromNanos(200));
  RateController rate(100000.0, &clock);  // 10 us interval
  const Timestamp first = TakeSlot(&rate);

  Timestamp prev = first;
  for (int i = 1; i <= 200; ++i) {
    if (i == 50) clock.Jump(Duration::FromSeconds(5.0));
    const Timestamp deadline = TakeSlot(&rate);
    // Deadlines never recede, and the slot spacing stays exactly one
    // interval: the jump makes the controller late, not the schedule fast.
    EXPECT_GE(deadline, prev) << "slot " << i;
    prev = deadline;
    EXPECT_NEAR(static_cast<double>((deadline - first).nanos()),
                i * 10000.0, 1.0)
        << "slot " << i;
  }

  // Catch-up after the jump is immediate: a deadline already in the past
  // needs exactly one clock read to release, no sleeping toward it.
  const uint64_t before = clock.reads();
  TakeSlot(&rate);
  EXPECT_LE(clock.reads() - before, 2u);
}

TEST(RateControllerTest, BackwardClockJumpWaitsLongerButNeverLivelocks) {
  JumpClock clock(Duration::FromMicros(1));
  RateController rate(1000.0, &clock);  // 1 ms interval
  const Timestamp first = TakeSlot(&rate);
  TakeSlot(&rate);

  // The clock leaps 5 ms into the past; the next deadline is now ~7 ms of
  // clock-reads away. The wait must cover the gap by polling forward —
  // if the controller instead recomputed the schedule from Now() or
  // attempted a negative sleep, the spacing or ordering would break.
  clock.Jump(Duration::FromMillis(-5));
  const Timestamp third = TakeSlot(&rate);
  EXPECT_NEAR(static_cast<double>((third - first).nanos()), 2.0e6, 1.0);

  Timestamp prev = third;
  for (int i = 3; i <= 10; ++i) {
    const Timestamp deadline = TakeSlot(&rate);
    EXPECT_GE(deadline, prev);
    EXPECT_GE(clock.Now(), deadline);  // released at/after its slot
    prev = deadline;
  }
  // Slots 0..10 released: ten intervals separate the last from the first.
  EXPECT_NEAR(static_cast<double>((prev - first).nanos()), 10.0e6, 1.0);
}

// ---------------------------------------------------------------------------
// Retarget properties (capacity search drives this live). A retarget must
// keep the anchored-deadline schedule: ahead-of-schedule it splices the
// new interval seamlessly at the previous deadline; behind schedule it
// resumes from the last observed time — never a burst of past deadlines.
// ---------------------------------------------------------------------------

TEST(RateControllerTest, RetargetOnScheduleSplicesSeamlessly) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  rate.NextDeadline();                  // t = 0
  rate.NextDeadline();                  // 1 ms
  const Timestamp prev = rate.NextDeadline();  // 2 ms
  rate.Retarget(2000.0);                       // 0.5 ms interval
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 2000.0);
  // New-rate deadlines continue from the previous deadline, exactly like
  // SetFactor: no gap, no overlap.
  EXPECT_EQ(rate.NextDeadline().nanos(), prev.nanos() + 500000);
  EXPECT_EQ(rate.NextDeadline().nanos(), prev.nanos() + 1000000);
}

TEST(RateControllerTest, RetargetResetsControlFactor) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();
  rate.SetFactor(4.0);
  rate.Retarget(2000.0);
  // The factor scales the NEW base, not a leftover of the old one.
  EXPECT_DOUBLE_EQ(rate.factor(), 1.0);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 2000.0);
}

TEST(RateControllerTest, RetargetWhileLaggingDoesNotBurstCatchUp) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);  // 1 ms interval
  TakeSlot(&rate);                      // t = 0, schedule anchored

  // Emission stalls: the clock runs 10 ms ahead of the schedule. The next
  // wait observes now = 10 ms against a 1 ms deadline (released late).
  clock.Advance(Duration::FromMillis(10));
  TakeSlot(&rate);

  // Retargeting mid-lag must resume from the observed now, not from the
  // stale 1 ms deadline — anchoring there would put the whole new-rate
  // schedule in the past and release an unpaced catch-up burst.
  rate.Retarget(500.0);  // 2 ms interval
  const Timestamp now = clock.Now();
  const Timestamp first = rate.NextDeadline();
  EXPECT_GE(first, now);  // strictly in the future: no burst
  EXPECT_EQ(first.nanos(), now.nanos() + 2000000);
  EXPECT_EQ(rate.NextDeadline().nanos(), now.nanos() + 4000000);
}

TEST(RateControllerTest, RetargetInvalidRateIgnored) {
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  rate.Retarget(0.0);
  rate.Retarget(-100.0);
  EXPECT_DOUBLE_EQ(rate.current_rate_eps(), 1000.0);
  EXPECT_EQ(rate.NextDeadline().nanos(), 1000000);  // schedule untouched
}

TEST(RateControllerTest, RetargetSequencePreservesExactSchedule) {
  // Drift audit across many retargets while on schedule: every segment
  // stays anchor + k * interval; truncation errors never accumulate.
  VirtualClock clock;
  RateController rate(1000.0, &clock);
  rate.NextDeadline();  // t = 0
  Timestamp last;
  double ideal = 0.0;
  const double rates[] = {3000.0, 7000.0, 1000.0, 300.0};
  for (const double r : rates) {
    rate.Retarget(r);
    for (int i = 0; i < 1000; ++i) last = rate.NextDeadline();
    ideal += 1000 * (1e9 / r);
    EXPECT_NEAR(static_cast<double>(last.nanos()), ideal, 2.0)
        << "after retarget to " << r;
    ideal = static_cast<double>(last.nanos());
  }
}

TEST(RateControllerTest, RandomJumpSequencePreservesExactScheduleSpan) {
  // Property sweep: whatever sequence of forward/backward leaps the clock
  // takes between slots, the emitted schedule stays anchor + k*interval —
  // monotone, no cumulative drift, span independent of every jump.
  Rng rng(42);
  VirtualClock clock;
  clock.Advance(Duration::FromSeconds(1.0));
  RateController rate(250000.0, &clock);  // 4 us interval
  const Timestamp first = rate.NextDeadline();

  Timestamp prev = first;
  for (int i = 1; i <= 5000; ++i) {
    // Jumps up to ±1 ms between slots (250x the interval).
    const int64_t jump_nanos =
        static_cast<int64_t>(rng.NextU64() % 2000001) - 1000000;
    clock.Advance(Duration::FromNanos(jump_nanos));
    const Timestamp deadline = rate.NextDeadline();
    ASSERT_GE(deadline, prev) << "slot " << i;
    prev = deadline;
  }
  EXPECT_NEAR(static_cast<double>((prev - first).nanos()), 5000 * 4000.0, 1.0);
}

}  // namespace
}  // namespace graphtides
