// End-to-end pipeline tests: generator -> stream file -> replayer ->
// in-process SUT (graph + online computations) -> harness loggers ->
// collector -> marker correlation and analysis. This mirrors the full
// GraphTides evaluation cycle (Fig. 2) in a single process.
#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "algorithms/online_pagerank.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "faults/fault_injector.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/log_collector.h"
#include "harness/experiment.h"
#include "harness/marker_correlator.h"
#include "harness/metrics_logger.h"
#include "replayer/sharded_replayer.h"
#include "sim/simulator.h"
#include "sim/virtual_replayer.h"
#include "stream/stream_file.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_e2e_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(EndToEndTest, GenerateWriteReplayComputeAnalyze) {
  // 1. Generate a social-network stream with periodic markers.
  SocialNetworkModel model;
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 5000;
  gen_options.seed = 12;
  gen_options.marker_interval = 1000;
  auto generated = StreamGenerator(&model, gen_options).Generate();
  ASSERT_TRUE(generated.ok());

  // 2. Round-trip through the stream file format.
  ASSERT_TRUE(WriteStreamFile(Path("social.gts"), generated->events).ok());

  // 3. Replay from disk into an in-process SUT: the reference graph plus
  //    an online PageRank, with loggers capturing markers and progress.
  WallClock wall;
  MetricsLogger replayer_log("replayer", &wall);
  MetricsLogger sut_log("sut", &wall);

  Graph graph;
  OnlinePageRank rank;
  size_t applied = 0;
  CallbackSink sink([&](const Event& e) {
    GT_RETURN_NOT_OK(graph.Apply(e));
    rank.OnEventApplied(e);
    rank.ProcessPending(64);  // interleave computation with ingestion
    if (++applied % 1000 == 0) {
      sut_log.Log("vertices", static_cast<double>(graph.num_vertices()));
    }
    return Status::OK();
  });

  ShardedReplayerOptions replay_options;
  replay_options.total_rate_eps = 500000.0;
  ShardedReplayer replayer(replay_options);
  auto run = replayer.ReplayFile(Path("social.gts"), {&sink});
  ASSERT_TRUE(run.ok());
  const ReplayStats& stats = run->aggregate;

  // Marker log: forward into the harness logger, simulating the paper's
  // watermark flow; the SUT "observes" each marker when its preceding
  // events are applied (same thread here, so latency ~ 0 but the plumbing
  // is exercised end to end).
  for (const MarkerRecord& m : stats.marker_log) {
    replayer_log.LogAt(m.time, "marker_sent", 1.0, m.label);
    sut_log.LogAt(m.time, "marker_seen", 1.0, m.label);
  }

  // 4. Collect and analyze.
  LogCollector collector;
  collector.AddLogger(&replayer_log);
  collector.AddLogger(&sut_log);
  const ResultLog log = collector.Collect();
  ASSERT_TRUE(log.WriteCsv(Path("result.csv")).ok());
  auto reloaded = ResultLog::ReadCsv(Path("result.csv"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->size(), log.size());

  const auto report =
      CorrelateMarkers(*reloaded, "marker_sent", "marker_seen");
  EXPECT_EQ(report.matched.size(), stats.marker_log.size());
  EXPECT_TRUE(report.unmatched.empty());

  // 5. The online computation result approximates the batch reference.
  for (int i = 0; i < 1000 && rank.HasPendingWork(); ++i) {
    rank.ProcessPending(10000);
  }
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  const PageRankResult exact = PageRank(csr);
  const auto online = rank.NormalizedRanks();
  std::vector<double> approx(csr.num_vertices(), 0.0);
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    auto it = online.find(csr.IdOf(v));
    if (it != online.end()) approx[v] = it->second;
  }
  EXPECT_LT(MedianRelativeError(approx, exact.ranks), 0.15);

  // Sanity: the stream really drove the graph.
  EXPECT_EQ(stats.events_delivered, applied);
  EXPECT_EQ(graph.num_vertices(), generated->final_vertices);
  EXPECT_EQ(graph.num_edges(), generated->final_edges);
}

TEST_F(EndToEndTest, FaultInjectedReplayDegradesGracefully) {
  SocialNetworkModel model;
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 3000;
  gen_options.seed = 13;
  auto generated = StreamGenerator(&model, gen_options).Generate();
  ASSERT_TRUE(generated.ok());

  FaultOptions fault_options;
  fault_options.drop_probability = 0.02;
  fault_options.duplicate_probability = 0.02;
  fault_options.reorder_probability = 0.05;
  fault_options.seed = 99;
  FaultReport fault_report;
  const auto faulty =
      InjectFaults(generated->events, fault_options, &fault_report);
  EXPECT_GT(fault_report.dropped, 0u);

  // A robust consumer rejects precondition-violating events and keeps
  // going: the graph stays internally consistent.
  Graph graph;
  size_t rejected = 0;
  CallbackSink sink([&](const Event& e) {
    if (!graph.Apply(e).ok()) ++rejected;
    return Status::OK();
  });
  ShardedReplayerOptions replay_options;
  replay_options.total_rate_eps = 500000.0;
  ShardedReplayer replayer(replay_options);
  auto stats = replayer.Replay(faulty, {&sink});
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(rejected, 0u);

  // The surviving graph matches an offline validation of the same faulty
  // stream.
  const StreamValidationReport validation = ValidateStream(faulty);
  EXPECT_EQ(graph.num_vertices(), validation.final_vertices);
  EXPECT_EQ(graph.num_edges(), validation.final_edges);
  EXPECT_EQ(rejected, validation.violations.size());
}

TEST_F(EndToEndTest, TwoConfigurationsComparedWithConfidenceIntervals) {
  // Methodology (§4.5) smoke test on a real component: replayer achieved
  // rate at two target rates, n runs each, compared via CI95. The rates are
  // measured in virtual time, so the comparison is deterministic; a seeded
  // PAUSE of up to 1 ms per repetition makes the samples vary.
  auto measure = [&](double rate, uint64_t seed) {
    Rng rng(seed + 1);
    std::vector<Event> events;
    for (VertexId v = 0; v < 2000; ++v) {
      events.push_back(Event::AddVertex(v + seed * 100000));
    }
    events.insert(events.begin() + rng.NextInt(1, 1999),
                  Event::Pause(Duration::FromMicros(rng.NextInt(0, 1000))));
    Simulator sim;
    VirtualReplayerOptions options;
    options.base_rate_eps = rate;
    VirtualReplayer replayer(&sim, options);
    const Timestamp started = sim.Now();
    replayer.Start(std::move(events), [](const Event&, size_t) {});
    sim.RunUntilIdle();
    EXPECT_TRUE(replayer.finished());
    return static_cast<double>(replayer.events_delivered()) /
           (replayer.finished_at() - started).seconds();
  };
  std::vector<double> slow;
  std::vector<double> fast;
  for (uint64_t r = 0; r < 5; ++r) {
    slow.push_back(measure(50000.0, r));
    fast.push_back(measure(200000.0, r));
  }
  const Comparison cmp = CompareByConfidenceIntervals(slow, fast);
  EXPECT_TRUE(cmp.significant);
  EXPECT_GT(cmp.mean_difference, 100000.0);
}

}  // namespace
}  // namespace graphtides
