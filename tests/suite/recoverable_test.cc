#include "suite/recoverable_connector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "suite/benchmark_suite.h"
#include "suite/connectors/online_connector.h"

namespace graphtides {
namespace {

ConnectorFactory OnlineFactory() {
  return [](Simulator* sim) {
    return std::make_unique<OnlineConnector>(sim, ChronoLiteOptions{});
  };
}

// A small ring + chords stream: enough structure for PageRank to have a
// meaningful top-k.
std::vector<Event> SmallStream(size_t n = 200) {
  std::vector<Event> events;
  for (VertexId v = 0; v < n; ++v) events.push_back(Event::AddVertex(v));
  for (VertexId v = 0; v < n; ++v) {
    events.push_back(Event::AddEdge(v, (v + 1) % n));
    events.push_back(Event::AddEdge(v, (v * 7 + 3) % n));
  }
  return events;
}

TEST(RecoverableConnectorTest, ForwardsAndJournalsWhileAlive) {
  Simulator sim;
  RecoverableConnector connector(&sim, OnlineFactory());
  EXPECT_TRUE(connector.SupportsRecovery());
  for (const Event& e : SmallStream(50)) connector.Ingest(e);
  sim.RunUntilIdle();
  EXPECT_FALSE(connector.crashed());
  EXPECT_GT(connector.EventsApplied(), 0u);
  EXPECT_TRUE(connector.Idle());
  EXPECT_FALSE(connector.CurrentRanks().empty());
}

TEST(RecoverableConnectorTest, CrashedConnectorHasNoQueryableResult) {
  Simulator sim;
  RecoverableConnector connector(&sim, OnlineFactory());
  for (const Event& e : SmallStream(50)) connector.Ingest(e);
  sim.RunUntilIdle();
  connector.Crash();
  EXPECT_TRUE(connector.crashed());
  EXPECT_TRUE(connector.CurrentRanks().empty());
  EXPECT_FALSE(connector.Idle());
  // Result age grows with the outage.
  sim.RunUntil(sim.Now() + Duration::FromSeconds(3.0));
  EXPECT_NEAR(connector.ResultAge().seconds(), 3.0, 1e-9);
}

TEST(RecoverableConnectorTest, RecoveryReplaysJournalAndConverges) {
  Simulator sim;
  RecoverableConnector connector(&sim, OnlineFactory());
  const std::vector<Event> stream = SmallStream();

  // First half, then crash, then second half during downtime (journaled),
  // then recover: the rebuilt instance must see the whole stream.
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) connector.Ingest(stream[i]);
  sim.RunUntilIdle();
  connector.Crash();
  for (size_t i = half; i < stream.size(); ++i) connector.Ingest(stream[i]);
  connector.Recover();
  sim.RunUntilIdle();

  EXPECT_EQ(connector.crashes(), 1u);
  EXPECT_EQ(connector.lost_events(), 0u);
  EXPECT_EQ(connector.last_recovery_journal(), stream.size());
  EXPECT_EQ(connector.inner_applied(), stream.size());
  EXPECT_TRUE(connector.Idle());
  EXPECT_FALSE(connector.CurrentRanks().empty());
}

TEST(RecoverableConnectorTest, EventsLostWithoutJournaling) {
  Simulator sim;
  RecoverableOptions options;
  options.journal_during_downtime = false;
  RecoverableConnector connector(&sim, OnlineFactory(), options);
  const std::vector<Event> stream = SmallStream(50);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) connector.Ingest(stream[i]);
  sim.RunUntilIdle();
  connector.Crash();
  for (size_t i = half; i < stream.size(); ++i) connector.Ingest(stream[i]);
  connector.Recover();
  sim.RunUntilIdle();

  EXPECT_EQ(connector.lost_events(), stream.size() - half);
  // Only the pre-crash prefix was replayed.
  EXPECT_EQ(connector.last_recovery_journal(), half);
  EXPECT_EQ(connector.inner_applied(), half);
}

TEST(RecoverableConnectorTest, EventsAppliedIsMonotoneAcrossRestart) {
  Simulator sim;
  RecoverableConnector connector(&sim, OnlineFactory());
  const std::vector<Event> stream = SmallStream(100);
  for (const Event& e : stream) connector.Ingest(e);
  sim.RunUntilIdle();
  const uint64_t before = connector.EventsApplied();
  ASSERT_GT(before, 0u);

  connector.Crash();
  EXPECT_GE(connector.EventsApplied(), before);
  connector.Recover();
  // Immediately after restart the raw counter is behind, but the reported
  // watermark-facing counter must never regress.
  EXPECT_LT(connector.inner_applied(), before);
  EXPECT_GE(connector.EventsApplied(), before);
  sim.RunUntilIdle();
  EXPECT_GE(connector.EventsApplied(), before);
  EXPECT_EQ(connector.inner_applied(), stream.size());
}

TEST(CrashRecoveryCaseTest, ReportsRecoveryOnSmallWorkload) {
  SuiteWorkload workload;
  workload.name = "tiny";
  workload.events = SmallStream();
  workload.graph_events = workload.events.size();
  workload.rate_eps = 100.0;  // 600 events -> 6s of stream

  CrashRecoveryOptions options;
  options.kill_after = Duration::FromSeconds(2.0);
  options.downtime = Duration::FromSeconds(1.0);
  options.max_duration = Duration::FromSeconds(120.0);

  auto report = RunCrashRecoveryCase(workload, OnlineFactory(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->workload, "tiny");
  EXPECT_DOUBLE_EQ(report->crash_at_s, 2.0);
  EXPECT_DOUBLE_EQ(report->recover_at_s, 3.0);
  EXPECT_TRUE(report->recovered);
  EXPECT_GE(report->recovery_catchup_s, 0.0);
  EXPECT_EQ(report->lost_events, 0u);
  // The journal at recovery holds everything ingested up to t=3s.
  EXPECT_GT(report->journal_events, 0u);
  EXPECT_TRUE(report->drained);
  // Journaled recovery loses nothing: final ranks match the reference.
  ASSERT_GE(report->final_rank_error, 0.0);
  EXPECT_LT(report->final_rank_error, 0.05);
}

TEST(CrashRecoveryCaseTest, StreamEndingBeforeRestartStillRecovers) {
  SuiteWorkload workload;
  workload.name = "ends-early";
  workload.events = SmallStream();
  workload.graph_events = workload.events.size();
  workload.rate_eps = 1000.0;  // 600 events -> the stream ends at 0.6 s

  CrashRecoveryOptions options;
  options.kill_after = Duration::FromSeconds(0.3);
  options.downtime = Duration::FromSeconds(2.0);
  options.max_duration = Duration::FromSeconds(60.0);

  auto report = RunCrashRecoveryCase(workload, OnlineFactory(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The journal replay is still on its way to the fresh instance at the
  // restart tick: the run is not drained there, and the catch-up is seen.
  EXPECT_TRUE(report->recovered);
  EXPECT_GT(report->recovery_catchup_s, 0.0);
  EXPECT_TRUE(report->drained);
  EXPECT_GT(report->drained_s, report->recover_at_s);
}

TEST(CrashRecoveryCaseTest, LossyRestartDivergesFromReference) {
  SuiteWorkload workload;
  workload.name = "tiny-lossy";
  workload.events = SmallStream();
  workload.graph_events = workload.events.size();
  workload.rate_eps = 100.0;

  CrashRecoveryOptions options;
  options.kill_after = Duration::FromSeconds(2.0);
  options.downtime = Duration::FromSeconds(2.0);
  options.journal_during_downtime = false;
  options.max_duration = Duration::FromSeconds(120.0);

  auto report = RunCrashRecoveryCase(workload, OnlineFactory(), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 2s of downtime at 100 eps: ~200 events lost.
  EXPECT_GT(report->lost_events, 100u);
  EXPECT_GT(report->final_rank_error, 0.0);
}

}  // namespace
}  // namespace graphtides
