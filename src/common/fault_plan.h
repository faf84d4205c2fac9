// FaultPlan: a seeded, deterministic script of *process-level* faults,
// unifying the delivery-level chaos schedule (faults/chaos_sink.h) with
// crash points compiled into the replay pipeline. Where ChaosSink degrades
// individual deliveries, a FaultPlan kills or starves the whole process at
// named boundaries so crash-consistency (durable checkpoints, resume
// exactly-once) can be exercised against a real SIGKILL, a torn checkpoint
// publish, or a file sink hitting ENOSPC — the failure classes the paper's
// robustness methodology demands a harness measure rather than assume.
//
// Spec grammar (comma-separated entries; `--fault-plan` / GT_FAULT_PLAN,
// with `--crash-at P[:N]` / GT_CRASH_AT as sugar for `crash=P[:N]`):
//   crash=<point>[:<n>]   raise SIGKILL at the n-th hit (default 1) of the
//                         named crash point; points are compiled into the
//                         replayer (see kCrashPoint* below)
//   torn=<point>[:<n>]    like crash=, but the checkpoint being published
//                         is first truncated to a seeded fraction of its
//                         bytes — the on-disk state a mid-rename power
//                         loss leaves behind
//   enospc=<bytes>        file-sink writes fail with an injected ENOSPC
//                         after a cumulative byte budget (latched)
//   short-write=<nth>     the nth file-sink write delivers only half its
//                         bytes, then fails
//   fail=<attempt>        delivery attempt index that always fails; feeds
//                         ChaosOptions::fail_points (see
//                         delivery_fail_points())
//   seed=<s>              RNG seed for the torn-write fraction (default 1)
#ifndef GRAPHTIDES_COMMON_FAULT_PLAN_H_
#define GRAPHTIDES_COMMON_FAULT_PLAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace graphtides {

// Named crash points compiled into the replay pipeline. Each marks a
// boundary whose crash-window the recovery machinery must survive.
/// After a sink acknowledged a delivery, before the accounting update.
inline constexpr std::string_view kCrashPostDelivery = "post-delivery";
/// Inside a checkpoint publish, after part of the temp file was written.
inline constexpr std::string_view kCrashMidCheckpointWrite =
    "mid-checkpoint-write";
/// After the temp checkpoint is durable, before the rename publishes it.
inline constexpr std::string_view kCrashPreCheckpointRename =
    "pre-checkpoint-rename";
/// After the rename + directory sync published the checkpoint.
inline constexpr std::string_view kCrashPostCheckpoint = "post-checkpoint";
/// Inside a cross-shard epoch-barrier completion, all lanes quiesced.
inline constexpr std::string_view kCrashEpochBarrier = "epoch-barrier";

// Distributed-replay crash points (coordinator + worker control plane).
/// Coordinator: after a shard-range ASSIGN/REASSIGN was sent to a worker.
inline constexpr std::string_view kCrashCoordPostAssign = "coord-post-assign";
/// Coordinator: after broadcasting an epoch release to the fleet.
inline constexpr std::string_view kCrashCoordEpochRelease =
    "coord-epoch-release";
/// Worker: after the HELLO handshake registered it with the coordinator.
inline constexpr std::string_view kCrashWorkerPostHello = "worker-post-hello";
/// Worker: after reporting an epoch, before waiting for its release —
/// lanes quiesced at the barrier, checkpoint state durable.
inline constexpr std::string_view kCrashWorkerEpochReport =
    "worker-epoch-report";

/// \brief One armed process-fault script. Thread-safe after Configure.
///
/// The process-global instance (Global()) is what the instrumentation
/// sites consult; it is disarmed by default, and the disarmed fast path is
/// a single relaxed atomic load.
class FaultPlan {
 public:
  /// Crash override for in-process tests (default: raise(SIGKILL)).
  using CrashFn = std::function<void(std::string_view point)>;

  FaultPlan() = default;

  /// The process-wide plan consulted by instrumentation sites.
  static FaultPlan& Global();

  /// Parses and arms `spec` (grammar above). InvalidArgument on unknown
  /// points or malformed entries; an empty spec leaves the plan disarmed.
  Status Configure(std::string_view spec);

  /// Arms from GT_FAULT_PLAN and GT_CRASH_AT (both honored, GT_CRASH_AT
  /// entries are crash= sugar). No-op when neither is set.
  Status ConfigureFromEnv();

  /// \brief Arms what a tool's command line asks for: the environment
  /// first (how a supervisor arms a child without touching its argv), then
  /// the `--fault-plan` spec, then the `--crash-at` list on top.
  Status ConfigureFromFlags(std::string_view fault_plan,
                            std::string_view crash_at);

  /// Disarms and clears everything (tests reset the global instance).
  void Reset();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// \brief Crash-point instrumentation: counts a hit of `point` and, when
  /// an armed crash entry's hit count is reached, kills the process (or
  /// invokes the test override). Near-zero cost while disarmed.
  void Hit(std::string_view point) {
    if (!armed_.load(std::memory_order_relaxed)) return;
    HitSlow(point);
  }

  /// \brief True when the checkpoint publish at `point` should be torn:
  /// outputs the seeded fraction of bytes to keep, then the caller
  /// truncates the published file and calls Hit-style crash via
  /// CrashNow(). Consumes the entry's hit budget like Hit does.
  bool TornCheckpointAt(std::string_view point, double* keep_fraction);

  /// \brief File-sink write-fault gate. Returns true when an armed
  /// ENOSPC/short-write fault fires for this write: `*allowed` is the byte
  /// count the sink should still write before failing, `*error` the
  /// message for the IoError. Latched: once fired, every later write
  /// fails with 0 allowed bytes.
  bool ClipFileWrite(size_t want, size_t* allowed, std::string* error);

  /// Deterministic delivery fail points for ChaosOptions::fail_points.
  std::vector<uint64_t> delivery_fail_points() const;

  /// Immediately executes the crash action for `point` (used by the torn
  /// path after the truncation is on disk).
  void CrashNow(std::string_view point);

  /// Test hook: replaces raise(SIGKILL).
  void set_crash_fn(CrashFn fn) { crash_ = std::move(fn); }

  /// Total crash-point hits observed while armed (telemetry/report).
  uint64_t hits_observed() const {
    return hits_observed_.load(std::memory_order_relaxed);
  }
  /// Injected file-write faults (ENOSPC / short writes) fired so far.
  uint64_t write_faults_fired() const {
    return write_faults_.load(std::memory_order_relaxed);
  }

  /// The crash points the replay pipeline implements, for spec validation
  /// and `--help` text.
  static const std::vector<std::string_view>& KnownCrashPoints();

 private:
  struct CrashEntry {
    std::string point;
    uint64_t at_hit = 1;  // crash on the at_hit-th Hit of this point
    bool torn = false;    // tear the checkpoint being published first
    std::atomic<uint64_t> hits{0};
    std::atomic<bool> fired{false};

    CrashEntry() = default;
    CrashEntry(const CrashEntry& other)
        : point(other.point),
          at_hit(other.at_hit),
          torn(other.torn),
          hits(other.hits.load()),
          fired(other.fired.load()) {}
  };

  void HitSlow(std::string_view point);
  /// Arms each comma-separated POINT[:N] entry of `list` as crash=
  /// (the `--crash-at` / GT_CRASH_AT sugar); empty entries are skipped.
  Status ConfigureCrashAt(std::string_view list);

  std::atomic<bool> armed_{false};
  std::vector<CrashEntry> crashes_;
  std::vector<uint64_t> fail_points_;
  uint64_t seed_ = 1;
  // ENOSPC: byte budget before writes start failing (-1 = disabled).
  std::atomic<int64_t> enospc_budget_{-1};
  // Short write: fires on the nth file-sink write (0 = disabled).
  std::atomic<uint64_t> short_write_at_{0};
  std::atomic<uint64_t> writes_seen_{0};
  std::atomic<bool> write_fault_latched_{false};
  std::atomic<uint64_t> hits_observed_{0};
  std::atomic<uint64_t> write_faults_{0};
  CrashFn crash_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_COMMON_FAULT_PLAN_H_
