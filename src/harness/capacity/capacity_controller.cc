#include "harness/capacity/capacity_controller.h"

#include <chrono>

namespace graphtides {

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

CapacityController::~CapacityController() { Stop(); }

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
  thread_ = std::thread([this, cancel] {
    while (!stop_.load(std::memory_order_acquire) && !cancel->cancelled()) {
      if (Poll(clock_->Now())) {
        cancel->RequestCancel("capacity search complete");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

void CapacityController::Stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

FrontierArtifact CapacityController::Artifact(
    const std::string& sut, const std::string& workload) const {
  return FrontierFromSearch(search_, sut, workload);
}

}  // namespace graphtides
