// Pins every score the three suite run functions report — RunSuiteCase,
// MeasureCapacityPoint and RunCrashRecoveryCase — on the tiny standard
// workloads (seed 42) against all four suite connectors. Each field is
// written with %.17g, so any change in the scored numbers shows as a text
// difference against tests/golden/suite_scores_tiny_seed42.txt.
//
// The scores are deterministic (virtual time; chronolite's combiners are
// insertion-ordered). A change that moves them on purpose rewrites the
// golden file from the text this test prints on a mismatch, and says so in
// the change log.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "suite/benchmark_suite.h"
#include "suite/connectors/hybrid_connector.h"
#include "suite/connectors/offline_connector.h"
#include "suite/connectors/online_connector.h"
#include "suite/connectors/weaver_connector.h"

namespace graphtides {
namespace {

std::vector<SuiteEntry> AllConnectors() {
  return {
      {"offline",
       [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         return std::make_unique<OfflineSnapshotConnector>(
             sim, OfflineConnectorOptions{});
       }},
      {"online",
       [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         return std::make_unique<OnlineConnector>(sim, ChronoLiteOptions{});
       }},
      {"hybrid",
       [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         return std::make_unique<HybridConnector>(sim,
                                                  HybridConnectorOptions{});
       }},
      {"weaverlite",
       [](Simulator* sim) -> std::unique_ptr<SuiteConnector> {
         return std::make_unique<WeaverConnector>(sim,
                                                  WeaverConnectorOptions{});
       }},
  };
}

/// printf-style formatting into a std::string.
template <typename... Args>
std::string Format(const char* format, Args... args) {
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  return buffer;
}

std::string SuiteLine(const std::string& entry, const SuiteCaseScore& s) {
  return Format(
      "suite %s %s connector=%s graph_events=%llu offered_rate_eps=%.17g "
      "applied_rate_eps=%.17g drained_s=%.17g drained=%d "
      "watermark_p50_s=%.17g watermark_p99_s=%.17g mean_rank_error=%.17g "
      "final_rank_error=%.17g mean_result_age_s=%.17g\n",
      s.workload.c_str(), entry.c_str(), s.connector.c_str(),
      static_cast<unsigned long long>(s.graph_events), s.offered_rate_eps,
      s.applied_rate_eps, s.drained_s, s.drained ? 1 : 0, s.watermark_p50_s,
      s.watermark_p99_s, s.mean_rank_error, s.final_rank_error,
      s.mean_result_age_s);
}

std::string CapacityLine(const std::string& workload, const std::string& entry,
                         const CapacityPointScore& s) {
  return Format(
      "capacity %s %s offered_rate_eps=%.17g achieved_rate_eps=%.17g "
      "watermark_p50_s=%.17g watermark_p99_s=%.17g watermarks_visible=%llu "
      "drained=%d\n",
      workload.c_str(), entry.c_str(), s.offered_rate_eps, s.achieved_rate_eps,
      s.watermark_p50_s, s.watermark_p99_s,
      static_cast<unsigned long long>(s.watermarks_visible), s.drained ? 1 : 0);
}

std::string CrashLine(const std::string& entry, const std::string& mode,
                      const CrashRecoveryReport& r) {
  return Format(
      "crash %s %s %s connector=%s crash_at_s=%.17g recover_at_s=%.17g "
      "journal_events=%llu lost_events=%llu recovery_catchup_s=%.17g "
      "recovered=%d drained_s=%.17g drained=%d final_rank_error=%.17g\n",
      r.workload.c_str(), entry.c_str(), mode.c_str(), r.connector.c_str(),
      r.crash_at_s, r.recover_at_s,
      static_cast<unsigned long long>(r.journal_events),
      static_cast<unsigned long long>(r.lost_events), r.recovery_catchup_s,
      r.recovered ? 1 : 0, r.drained_s, r.drained ? 1 : 0,
      r.final_rank_error);
}

std::string ScoreText() {
  std::string text;
  const std::vector<SuiteWorkload> workloads =
      StandardWorkloads(SuiteSize::kTiny, 42);
  const std::vector<SuiteEntry> connectors = AllConnectors();
  for (const SuiteWorkload& workload : workloads) {
    for (const SuiteEntry& entry : connectors) {
      SuiteCaseOptions suite_options;
      suite_options.error_interval = Duration::FromSeconds(0.5);
      auto score = RunSuiteCase(workload, entry.factory, suite_options);
      EXPECT_TRUE(score.ok()) << score.status();
      if (score.ok()) text += SuiteLine(entry.name, *score);

      SuiteCaseOptions capacity_options;
      capacity_options.max_duration = Duration::FromSeconds(20.0);
      for (double rate : {1000.0, 8000.0, 30000.0}) {
        auto point = MeasureCapacityPoint(workload, entry.factory, rate,
                                          capacity_options);
        EXPECT_TRUE(point.ok()) << point.status();
        if (point.ok()) text += CapacityLine(workload.name, entry.name, *point);
      }

      for (bool journal : {true, false}) {
        for (double kill_s : {0.3, 0.6}) {
          CrashRecoveryOptions crash_options;
          crash_options.journal_during_downtime = journal;
          crash_options.kill_after = Duration::FromSeconds(kill_s);
          auto report =
              RunCrashRecoveryCase(workload, entry.factory, crash_options);
          EXPECT_TRUE(report.ok()) << report.status();
          if (report.ok()) {
            text += CrashLine(entry.name, journal ? "journaled" : "lossy",
                              *report);
          }
        }
      }
    }
  }
  return text;
}

TEST(SuiteScoresGolden, TinySeed42MatchesGolden) {
  const std::string path =
      std::string(GT_GOLDEN_DIR) + "/suite_scores_tiny_seed42.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream golden;
  golden << in.rdbuf();

  const std::string actual = ScoreText();
  EXPECT_EQ(actual, golden.str())
      << "scores differ from " << path << "; actual text:\n"
      << "--- actual ---\n"
      << actual << "--- end ---";
}

}  // namespace
}  // namespace graphtides
