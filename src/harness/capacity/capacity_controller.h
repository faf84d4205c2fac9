// The live capacity controller (DESIGN.md §16): runs a CapacitySearch
// against windowed deltas of a live RunTelemetry hub and publishes each
// step's offered rate through an atomic that the replayer's emitter lanes
// poll (ShardedReplayerOptions::rate_target_eps). gt_replay --find-capacity
// is its caller; the simulated lane (frontier_sweep.h) drives the same
// search in virtual time.
//
// Each rate step settles for `warmup` after the retarget (the ramp
// transient is never measured), then measures back-to-back windows of
// `window` until the search concludes the step. The loop is Poll(now): one
// non-blocking step against a caller-supplied time, so a unit test drives
// a whole search on a VirtualClock. Start() runs Poll every 10 ms on a
// thread of its own; when the search concludes that thread fires the
// replay's cancellation token — for a capacity run that cancellation is
// the success path, which concluded() tells apart from any other cancel.
#ifndef GRAPHTIDES_HARNESS_CAPACITY_CAPACITY_CONTROLLER_H_
#define GRAPHTIDES_HARNESS_CAPACITY_CAPACITY_CONTROLLER_H_

#include <atomic>
#include <string>
#include <thread>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/status.h"
#include "harness/capacity/capacity_search.h"
#include "harness/capacity/frontier.h"
#include "harness/capacity/window_probe.h"
#include "harness/telemetry/run_telemetry.h"

namespace graphtides {

struct CapacityControllerOptions {
  CapacitySearchOptions search;
  CapacityProbe::Signal signal = CapacityProbe::Signal::kAuto;
  /// Settle time after each retarget, excluded from measurement.
  Duration warmup = Duration::FromMillis(300);
  /// Measurement window length (> 0).
  Duration window = Duration::FromMillis(500);
};

/// \brief OK when every value of `options` is in range, else
/// InvalidArgument naming the gt_replay flag that sets the first value out
/// of range. CapacitySearch and CapacityController clamp such values;
/// gt_replay --find-capacity rejects them before it opens its input.
Status ValidateCapacityOptions(const CapacityControllerOptions& options);

class CapacityController {
 public:
  /// `telemetry` and `clock` are borrowed; both must outlive the
  /// controller.
  CapacityController(const CapacityControllerOptions& options,
                     const RunTelemetry* telemetry, const Clock* clock);
  ~CapacityController();

  CapacityController(const CapacityController&) = delete;
  CapacityController& operator=(const CapacityController&) = delete;

  /// The aggregate offered rate of the current step (events/s); it holds
  /// the start rate before the first Poll.
  const std::atomic<double>* rate_target() const { return &rate_target_; }

  /// \brief Advances the settle loop to `now`: publishes a step's rate when
  /// it begins, opens the measurement window when the warmup has passed,
  /// and reports each window that has run its length. Returns true once
  /// the search has concluded.
  bool Poll(Timestamp now);

  /// Polls every 10 ms on a thread of its own until the search concludes,
  /// then fires `cancel`; also stops early once `cancel` fired for any
  /// other reason. `cancel` must outlive Stop().
  void Start(CancellationToken* cancel);
  /// Stops and joins the polling thread (the replay has ended). A search
  /// cut short here leaves the artifact incomplete.
  void Stop();

  /// True once the search has concluded (the cancel it fired is the
  /// run's success path).
  bool concluded() const { return concluded_.load(std::memory_order_acquire); }

  /// The gt-frontier-v1 artifact of the search so far. Call after Stop().
  FrontierArtifact Artifact(const std::string& sut,
                            const std::string& workload) const;

  const CapacitySearch& search() const { return search_; }

 private:
  enum class Stage { kIdle, kWarmup, kWindow };

  void BeginStep(Timestamp now);

  CapacityControllerOptions options_;
  CapacitySearch search_;
  CapacityProbe probe_;
  const Clock* clock_;
  std::atomic<double> rate_target_;
  std::atomic<bool> concluded_{false};
  Stage stage_ = Stage::kIdle;
  Timestamp deadline_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_CAPACITY_CAPACITY_CONTROLLER_H_
