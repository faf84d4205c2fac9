#include "harness/capacity/capacity_controller.h"

#include <utility>

namespace graphtides {

Status ValidateCapacityOptions(const CapacityControllerOptions& options) {
  const CapacitySearchOptions& search = options.search;
  // Negated comparisons, so that a NaN is out of range too.
  if (!(search.slo_p99_ms > 0.0)) {
    return Status::InvalidArgument("--slo-p99-ms must be positive");
  }
  if (!(search.start_rate_eps > 0.0)) {
    return Status::InvalidArgument("--capacity-start-rate must be positive");
  }
  if (!(search.max_rate_eps > 0.0)) {
    return Status::InvalidArgument("--capacity-max-rate must be positive");
  }
  if (!(search.max_rate_eps >= search.start_rate_eps)) {
    return Status::InvalidArgument(
        "--capacity-max-rate must be >= --capacity-start-rate");
  }
  if (!(search.growth > 1.0)) {
    return Status::InvalidArgument("--capacity-growth must be > 1");
  }
  if (!(search.resolution > 0.0)) {
    return Status::InvalidArgument("--capacity-resolution must be positive");
  }
  if (options.warmup < Duration::Zero()) {
    return Status::InvalidArgument("--capacity-warmup-ms must be >= 0");
  }
  if (options.window <= Duration::Zero()) {
    return Status::InvalidArgument("--capacity-window-ms must be positive");
  }
  if (search.windows_per_step < 1) {
    return Status::InvalidArgument("--capacity-windows must be >= 1");
  }
  if (search.confirm_violations < 1) {
    return Status::InvalidArgument("--capacity-confirm must be >= 1");
  }
  if (search.confirm_violations > search.windows_per_step) {
    return Status::InvalidArgument(
        "--capacity-confirm must be <= --capacity-windows");
  }
  if (search.max_steps < 1) {
    return Status::InvalidArgument("--capacity-max-steps must be >= 1");
  }
  return Status::OK();
}

CapacityController::CapacityController(
    const CapacityControllerOptions& options, const RunTelemetry* telemetry,
    const Clock* clock)
    : options_(options),
      search_(options.search),
      probe_(telemetry, options.signal, clock),
      clock_(clock),
      rate_target_(search_.current_rate_eps()) {
  if (options_.window <= Duration::Zero()) {
    options_.window = Duration::FromMillis(500);
  }
}

void CapacityController::BeginStep(Timestamp now) {
  rate_target_.store(search_.current_rate_eps(), std::memory_order_relaxed);
  stage_ = Stage::kWarmup;
  deadline_ = now + options_.warmup;
}

bool CapacityController::Poll(Timestamp now) {
  if (search_.done()) return true;
  switch (stage_) {
    case Stage::kIdle:
      BeginStep(now);
      break;
    case Stage::kWarmup:
      if (now < deadline_) break;
      probe_.BeginWindow();
      stage_ = Stage::kWindow;
      deadline_ = now + options_.window;
      break;
    case Stage::kWindow:
      if (now < deadline_) break;
      // EndWindow re-baselines, so back-to-back windows partition the step
      // exactly.
      if (!search_.ReportWindow(probe_.EndWindow())) {
        deadline_ = now + options_.window;
      } else if (!search_.done()) {
        BeginStep(now);
      }
      break;
  }
  if (!search_.done()) return false;
  concluded_.store(true, std::memory_order_release);
  return true;
}

void CapacityController::Start(CancellationToken* cancel) {
  auto poll = [this, cancel] {
    if (cancel->cancelled()) return true;
    if (!Poll(clock_->Now())) return false;
    cancel->RequestCancel("capacity search complete");
    return true;
  };
  if (!poll()) poller_.Start(Duration::FromMillis(10), std::move(poll));
}

void CapacityController::Stop() { poller_.Stop(); }

FrontierArtifact CapacityController::Artifact(
    const std::string& sut, const std::string& workload) const {
  return FrontierFromSearch(search_, sut, workload);
}

}  // namespace graphtides
