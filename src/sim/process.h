// SimProcess: a single-threaded OS process in the simulation, with CPU-time
// accounting. Work items are serialized (a busy process delays later work),
// and busy intervals are binned into a utilization time series — this is
// the Level-0 "CPU load per process" metric of §4.3, computed by accounting
// instead of sampling.
#ifndef GRAPHTIDES_SIM_PROCESS_H_
#define GRAPHTIDES_SIM_PROCESS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/clock.h"
#include "sim/simulator.h"

namespace graphtides {

/// \brief A simulated process with one CPU's worth of capacity.
class SimProcess {
 public:
  /// `utilization_bin` is the width of CPU-accounting bins.
  SimProcess(Simulator* sim, std::string name,
             Duration utilization_bin = Duration::FromSeconds(1.0));

  const std::string& name() const { return name_; }

  /// \brief Submits a work item costing `cpu_cost` of CPU time; `done`
  /// runs at the virtual time the work completes. Work is serialized after
  /// everything previously submitted.
  ///
  /// Returns the completion time. Submissions to a killed process are
  /// dropped (counted in lost_submissions) and `done` never runs.
  ///
  /// Completion times never decrease across submissions, so pending
  /// `done` callbacks wait in a FIFO owned by the process; the simulator
  /// only holds a small (this, generation) event per submission.
  Timestamp Submit(Duration cpu_cost, Simulator::Callback done);

  // --- Crash–recovery (§3.2 fault tolerance, runtime dimension) ---------

  /// \brief Kills the process at the current virtual time.
  ///
  /// All queued and in-flight work is lost: completion callbacks already
  /// scheduled on the simulator are suppressed, the accounted busy time
  /// beyond now is rolled back, and new submissions are dropped until
  /// Recover(). Idempotent while dead.
  void Kill();

  /// \brief Restarts the process at the current virtual time with an
  /// empty queue. No-op when alive.
  void Recover();

  bool alive() const { return alive_; }
  uint64_t kills() const { return kills_; }
  /// Work items dropped because the process was dead.
  uint64_t lost_submissions() const { return lost_submissions_; }
  /// Accumulated dead time (closed downtimes only).
  Duration downtime() const { return downtime_; }

  /// Queue-delay a new submission would currently experience.
  Duration Backlog() const;

  Duration total_busy() const { return total_busy_; }

  /// CPU utilization (0..1) per bin since construction, up to `until`.
  /// Bins with no accounted work report 0.
  std::vector<double> UtilizationSeries(Timestamp until) const;
  Duration utilization_bin() const { return bin_; }
  Timestamp epoch() const { return epoch_; }

 private:
  /// Runs the oldest pending `done` if `generation` is still current.
  void Complete(uint64_t generation);
  void AccountBusy(Timestamp start, Timestamp end);
  /// Removes previously accounted busy time in [start, end) — used when a
  /// kill discards queued work whose cost was charged at submit time.
  void UnaccountBusy(Timestamp start, Timestamp end);

  Simulator* sim_;
  std::string name_;
  Duration bin_;
  Timestamp epoch_;
  Timestamp busy_until_;
  Duration total_busy_;
  std::vector<Duration> busy_per_bin_;

  bool alive_ = true;
  /// Bumped on every Kill; completion events carry the generation they
  /// were scheduled under and fire only if it still matches.
  uint64_t generation_ = 0;
  /// Pending `done` callbacks in submission (= completion) order: entries
  /// before next_completion_ have run. Cleared by Kill.
  std::vector<Simulator::Callback> completions_;
  size_t next_completion_ = 0;
  Timestamp killed_at_;
  Duration downtime_;
  uint64_t kills_ = 0;
  uint64_t lost_submissions_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SIM_PROCESS_H_
