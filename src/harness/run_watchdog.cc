#include "harness/run_watchdog.h"

#include <utility>

namespace graphtides {

void RunWatchdog::Arm(ProgressProbe probe, HangFn on_hang) {
  Disarm();
  probe_ = std::move(probe);
  on_hang_ = std::move(on_hang);
  fired_.store(false, std::memory_order_release);
  last_progress_.store(probe_(), std::memory_order_relaxed);
  last_change_ = clock_->Now();
  poller_.Start(options_.poll_interval,
                [this] { return Check(probe_(), clock_->Now()); });
}

bool RunWatchdog::Check(uint64_t progress, Timestamp now) {
  if (fired()) return true;
  if (progress != last_progress()) {
    last_progress_.store(progress, std::memory_order_relaxed);
    last_change_ = now;
    return false;
  }
  const Duration stalled = now - last_change_;
  if (stalled < options_.stall_deadline) return false;
  fired_.store(true, std::memory_order_release);
  if (on_hang_) on_hang_(progress, stalled);
  return true;
}

}  // namespace graphtides
