// Evaluation levels (§4): Level 0 treats the SUT as a black box (external
// process monitoring only), Level 1 adds a native metrics interface,
// Level 2 allows in-source instrumentation hooks.
#ifndef GRAPHTIDES_HARNESS_EVALUATION_LEVEL_H_
#define GRAPHTIDES_HARNESS_EVALUATION_LEVEL_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace graphtides {

enum class EvaluationLevel : int {
  /// Black box: stream in, results out, external process metrics only.
  kLevel0 = 0,
  /// The SUT exposes a native metrics interface (SutMetricsSource).
  kLevel1 = 1,
  /// The analyst can inject measurement logic into the SUT (hooks).
  kLevel2 = 2,
};

/// \brief Level-1 capability: a SUT-provided metrics snapshot.
class SutMetricsSource {
 public:
  virtual ~SutMetricsSource() = default;

  /// Current values of the SUT's native metrics (name, value).
  virtual std::vector<std::pair<std::string, double>> CollectMetrics()
      const = 0;
};

/// \brief Level-2 capability: named instrumentation points the analyst can
/// attach probes to. The SUT invokes registered probes with a measurement
/// value at internally chosen moments.
class InstrumentationHooks {
 public:
  using Probe = std::function<void(double value)>;

  void Attach(const std::string& point, Probe probe) {
    probes_.emplace_back(point, std::move(probe));
  }

  /// Called by the SUT at an instrumentation point.
  void Fire(const std::string& point, double value) const {
    for (const auto& [name, probe] : probes_) {
      if (name == point) probe(value);
    }
  }

 private:
  std::vector<std::pair<std::string, Probe>> probes_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_EVALUATION_LEVEL_H_
