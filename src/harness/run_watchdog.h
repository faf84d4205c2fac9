// RunWatchdog: hang detection for unattended runs (§4.5 methodology — an
// n ≥ 30 campaign must not stall on one wedged system under test).
//
// Liveness is derived from *progress*, not mere process aliveness: the
// supervisor registers a probe returning a monotonically non-decreasing
// counter (events delivered, markers observed, watermark position), and a
// PollThread samples it every poll interval and hands the sample to
// Check(). When the counter stays unchanged for the stall deadline, the
// run is declared hung and the hang action fires exactly once — typically
// a CancellationToken::RequestCancel that the run observes cooperatively.
#ifndef GRAPHTIDES_HARNESS_RUN_WATCHDOG_H_
#define GRAPHTIDES_HARNESS_RUN_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "harness/poll_thread.h"

namespace graphtides {

struct WatchdogOptions {
  /// A run with no observed progress for this long is declared hung.
  Duration stall_deadline = Duration::FromSeconds(30.0);
  /// How often the probe is sampled.
  Duration poll_interval = Duration::FromMillis(10);
};

/// \brief Watches one run at a time; reusable across runs via Arm/Disarm.
///
/// Thread-safety: Arm and Disarm are called by the supervising thread; the
/// probe and hang action run on the poll thread and must be safe to call
/// from there (probes typically read one atomic).
class RunWatchdog {
 public:
  /// Monotonically non-decreasing progress value of the supervised run.
  using ProgressProbe = std::function<uint64_t()>;
  /// Invoked once when the run is declared hung, with the last progress
  /// value and how long it had been stalled.
  using HangFn = std::function<void(uint64_t last_progress, Duration stalled)>;

  /// `clock` is borrowed and must outlive the watchdog; nullptr means a
  /// MonotonicClock.
  explicit RunWatchdog(WatchdogOptions options,
                       const Clock* clock = nullptr)
      : options_(options),
        clock_(clock != nullptr ? clock : &monotonic_) {}

  RunWatchdog(const RunWatchdog&) = delete;
  RunWatchdog& operator=(const RunWatchdog&) = delete;

  /// \brief Starts watching. The stall clock starts now, from one probe
  /// sample taken on the calling thread; the probe is then sampled every
  /// poll interval. Arming an armed watchdog disarms it first.
  void Arm(ProgressProbe probe, HangFn on_hang);

  /// Stops watching and joins the poll thread. Idempotent. After Disarm
  /// returns, the hang action is guaranteed not to fire (anymore).
  void Disarm() { poller_.Stop(); }

  /// \brief The stall rule, applied to one progress sample taken at `now`:
  /// a changed value restarts the stall clock; a value unchanged for the
  /// stall deadline declares the run hung and fires the hang action (once
  /// per Arm). Returns true once the run is hung. The poll thread calls
  /// it; a caller that keeps the poll interval long may call it directly.
  bool Check(uint64_t progress, Timestamp now);

  /// True once the current/last armed run was declared hung.
  bool fired() const { return fired_.load(std::memory_order_acquire); }

  /// Last progress value the watchdog observed.
  uint64_t last_progress() const {
    return last_progress_.load(std::memory_order_relaxed);
  }

 private:
  WatchdogOptions options_;
  MonotonicClock monotonic_;
  const Clock* clock_;
  ProgressProbe probe_;
  HangFn on_hang_;
  /// When last_progress_ last changed.
  Timestamp last_change_;
  std::atomic<bool> fired_{false};
  std::atomic<uint64_t> last_progress_{0};
  // Last, so that it is joined (disarmed) before the state its poll reads
  // goes away.
  PollThread poller_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_RUN_WATCHDOG_H_
