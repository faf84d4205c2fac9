// In-memory span recorder for traced benchmark runs.
//
// Spans are taken from the benchmark's own files, around each call into a
// layer of the program; nothing inside src/ is instrumented. Each thread
// the benchmark can see records into its own TraceTrack, so recording
// needs no lock. Per track, phase and layer the recorder keeps exact
// self-time sums (a span's duration minus that of its direct children),
// which is what the reconciliation adds up; the spans themselves are kept
// up to a cap and written out as Chrome trace-event JSON at the end.
#ifndef GRAPHTIDES_BENCH_E2E_TRACE_H_
#define GRAPHTIDES_BENCH_E2E_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace graphtides::e2e {

/// Layers of the program, named after the repository's modules. kBench is
/// the benchmark's own work (checks, bookkeeping) on the same threads.
enum class Layer : uint8_t {
  kGenerator,
  kStream,
  kReplayer,
  kGraph,
  kAlgorithms,
  kTelemetry,
  kSuite,
  kBench,
};
inline constexpr size_t kLayerCount = 8;
std::string_view LayerName(Layer layer);

/// Phases of one run. Reconciliation covers setup and measure; warm-up
/// passes and the isolated codec passes of a traced run have their own.
enum class Phase : uint8_t { kSetup, kWarmup, kMeasure, kIsolated };
inline constexpr size_t kPhaseCount = 4;
std::string_view PhaseName(Phase phase);

/// Nanoseconds on the steady clock (the axis MonotonicClock and the
/// replayer's marker log use).
int64_t NowNs();

class Tracer;

/// \brief The spans of one thread. Not thread-safe: one thread records
/// into a track at a time (successive lane threads may share one).
class TraceTrack {
 public:
  TraceTrack(const TraceTrack&) = delete;
  TraceTrack& operator=(const TraceTrack&) = delete;

  /// Opens a span at now; spans on a track nest.
  void Begin(Layer layer, std::string name);
  /// Closes the innermost open span at now.
  void End();
  /// Records a closed span without children. With keep = false only its
  /// time is accounted (per-event timings), no span is stored.
  void Leaf(Layer layer, std::string_view name, int64_t start_ns,
            int64_t end_ns, bool keep = true);

  const std::string& name() const { return name_; }

 private:
  friend class Tracer;
  struct Open {
    Layer layer;
    std::string name;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Span {
    Layer layer;
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
  };

  TraceTrack(const Tracer* tracer, std::string name, bool reconcile)
      : tracer_(tracer), name_(std::move(name)), reconcile_(reconcile) {}
  void Account(Layer layer, int64_t self_ns);
  void Store(Layer layer, std::string_view name, int64_t start_ns,
             int64_t end_ns);

  const Tracer* tracer_;
  std::string name_;
  /// False for tracks that are not threads (the marker timeline).
  bool reconcile_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_spans_ = 0;
  std::array<std::array<int64_t, kLayerCount>, kPhaseCount> self_ns_{};
};

/// \brief Owns the tracks of one traced run and the phase clock.
class Tracer {
 public:
  /// Spans kept per track; later spans are accounted but not written.
  static constexpr size_t kMaxSpansPerTrack = 50000;

  Tracer();

  /// The track called `name`, created on first use. Call from the main
  /// thread before the track's thread starts.
  TraceTrack* Track(const std::string& name, bool reconcile = true);

  /// Ends the current phase and starts `phase` at now (main thread).
  void EnterPhase(Phase phase);
  /// Closes the last phase.
  void Finish();
  Phase phase() const { return phase_.load(std::memory_order_acquire); }

  /// Wall time of a finished phase in nanoseconds.
  int64_t PhaseWallNs(Phase phase) const;
  /// Nanoseconds of `phase` on `track` covered by no span.
  int64_t UnattributedNs(const TraceTrack& track, Phase phase) const;
  /// Unattributed share of the main thread's measured phase.
  double MainUnattributedShare() const;

  /// Per-thread table: each layer's self time plus the unattributed rest,
  /// which together add up to the phase's wall time.
  std::string ReconciliationTable(Phase phase) const;

  /// All kept spans as Chrome trace-event JSON (Perfetto opens it).
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t origin_ns_;
  std::atomic<Phase> phase_{Phase::kSetup};
  bool phase_open_ = true;
  std::array<int64_t, kPhaseCount> phase_start_ns_{};
  std::array<int64_t, kPhaseCount> phase_end_ns_{};
  std::vector<std::unique_ptr<TraceTrack>> tracks_;
};

/// RAII span on a possibly absent track (untraced runs pass nullptr).
class ScopedSpan {
 public:
  ScopedSpan(TraceTrack* track, Layer layer, std::string name)
      : track_(track) {
    if (track_ != nullptr) track_->Begin(layer, std::move(name));
  }
  ~ScopedSpan() {
    if (track_ != nullptr) track_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceTrack* track_;
};

}  // namespace graphtides::e2e

#endif  // GRAPHTIDES_BENCH_E2E_TRACE_H_
