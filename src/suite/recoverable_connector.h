// RecoverableConnector: wraps any SuiteConnector factory with SUT
// crash–recovery semantics (§3.2 sketches fault-tolerance evaluation but
// the paper never implements it). Crash() discards the live SUT instance;
// Recover() builds a fresh instance from the factory and replays the
// journal of previously ingested events into it, charging the rebuild to
// the new instance's sim processes — so recovery time and post-recovery
// consistency are measurable in virtual time like every other §4.3 metric.
#ifndef GRAPHTIDES_SUITE_RECOVERABLE_CONNECTOR_H_
#define GRAPHTIDES_SUITE_RECOVERABLE_CONNECTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "suite/benchmark_suite.h"
#include "suite/connector.h"

namespace graphtides {

struct RecoverableOptions {
  /// When true (durable input log: the replayer's stream file, a Kafka
  /// topic), events arriving during downtime are journaled and replayed on
  /// recovery. When false they are lost and counted.
  bool journal_during_downtime = true;
};

/// \brief Crash-recoverable decorator around a connector factory.
class RecoverableConnector final : public SuiteConnector {
 public:
  RecoverableConnector(Simulator* sim, ConnectorFactory factory,
                       RecoverableOptions options = {});

  std::string Name() const override;
  void Ingest(const Event& event) override;
  uint64_t EventsApplied() const override;
  bool Idle() const override;
  std::unordered_map<VertexId, double> CurrentRanks() const override;
  Duration ResultAge() const override;

  bool SupportsRecovery() const override { return true; }
  void Crash() override;
  void Recover() override;

  // --- Recovery observability -------------------------------------------

  bool crashed() const { return crashed_; }
  uint64_t crashes() const { return crashes_; }
  /// Events dropped during downtime (journal_during_downtime = false).
  uint64_t lost_events() const { return lost_events_; }
  /// Journal length at the last Recover() — the rebuild workload.
  uint64_t last_recovery_journal() const { return last_recovery_journal_; }
  Timestamp last_recovered_at() const { return last_recovered_at_; }
  /// The live SUT's raw applied counter (resets across restarts) — used to
  /// detect catch-up; EventsApplied() stays monotone for watermarks.
  uint64_t inner_applied() const;

 private:
  Simulator* sim_;
  ConnectorFactory factory_;
  RecoverableOptions options_;
  std::unique_ptr<SuiteConnector> inner_;
  /// Dead instances are parked, not destroyed: their pending simulator
  /// callbacks must stay valid until the run ends.
  std::vector<std::unique_ptr<SuiteConnector>> graveyard_;

  std::vector<Event> journal_;
  bool crashed_ = false;
  Timestamp crashed_at_;
  uint64_t crashes_ = 0;
  uint64_t lost_events_ = 0;
  uint64_t last_recovery_journal_ = 0;
  Timestamp last_recovered_at_;
  /// Monotone floor for EventsApplied across restarts.
  mutable uint64_t reported_applied_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SUITE_RECOVERABLE_CONNECTOR_H_
