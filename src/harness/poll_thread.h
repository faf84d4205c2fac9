// PollThread: the one background loop behind the run monitors (the
// RunWatchdog, the TelemetrySnapshotter and the live CapacityController).
// It calls a poll every period on a thread of its own until the poll
// returns true or Stop() is called; Stop() sets one flag under one mutex,
// wakes the thread through one condition variable and joins it, so a long
// period never delays shutdown.
#ifndef GRAPHTIDES_HARNESS_POLL_THREAD_H_
#define GRAPHTIDES_HARNESS_POLL_THREAD_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/clock.h"

namespace graphtides {

class PollThread {
 public:
  /// Returns true when there is nothing left to poll for.
  using PollFn = std::function<bool()>;

  PollThread() = default;
  ~PollThread() { Stop(); }

  PollThread(const PollThread&) = delete;
  PollThread& operator=(const PollThread&) = delete;

  /// Calls `poll` every `period` (> 0), the first call one period after
  /// Start, until it returns true or Stop() is called. A thread still
  /// running from an earlier Start is stopped first.
  void Start(Duration period, PollFn poll) {
    Stop();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = false;
    }
    thread_ = std::thread([this, period, poll = std::move(poll)] {
      const auto wait = std::chrono::nanoseconds(period.nanos());
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, wait, [this] { return stop_; })) {
        // Poll outside the lock: a slow poll must not delay Stop().
        lock.unlock();
        if (poll()) return;
        lock.lock();
      }
    });
  }

  /// Wakes the thread and joins it; once Stop returns, no poll runs until
  /// the next Start. Idempotent, and a no-op before Start. Must not be
  /// called from inside the poll.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_POLL_THREAD_H_
