#include "sut/chronolite/chronolite.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "algorithms/pagerank.h"
#include "common/random.h"
#include "graph/csr.h"
#include "graph/graph.h"

namespace graphtides {
namespace {

std::vector<Event> RandomStream(size_t n_vertices, size_t n_edges,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Event> events;
  Graph shadow;
  for (VertexId v = 0; v < n_vertices; ++v) {
    events.push_back(Event::AddVertex(v));
    EXPECT_TRUE(shadow.Apply(events.back()).ok());
  }
  size_t added = 0;
  while (added < n_edges) {
    const VertexId a = rng.NextBounded(n_vertices);
    const VertexId b = rng.NextBounded(n_vertices);
    if (a == b || shadow.HasEdge(a, b)) continue;
    events.push_back(Event::AddEdge(a, b));
    EXPECT_TRUE(shadow.Apply(events.back()).ok());
    ++added;
  }
  return events;
}

void IngestAll(Simulator& sim, ChronoLite& engine,
               const std::vector<Event>& events) {
  for (const Event& e : events) {
    engine.Ingest(e);
    sim.RunUntilIdle();  // fully process each event (idle system)
  }
}

TEST(ChronoLiteTest, IngestsAndCounts) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  const auto events = RandomStream(20, 40, 1);
  IngestAll(sim, engine, events);
  EXPECT_EQ(engine.events_ingested(), events.size());
  EXPECT_EQ(engine.updates_applied(), events.size());
  EXPECT_TRUE(engine.Idle());
}

TEST(ChronoLiteTest, NotIdleWhileAMessageIsOnALink) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  // The broker sends the update over a link; no worker holds it yet.
  engine.Ingest(Event::AddVertex(1));
  EXPECT_FALSE(engine.Idle());
  sim.RunUntilIdle();
  EXPECT_EQ(engine.updates_applied(), 1u);
  EXPECT_TRUE(engine.Idle());
}

TEST(ChronoLiteTest, RanksConvergeToBatchPageRank) {
  Simulator sim;
  ChronoLiteOptions options;
  options.rank.push_threshold = 1e-6;
  ChronoLite engine(&sim, options);
  const auto events = RandomStream(40, 150, 2);
  // Ingest the whole stream, then let the computation settle once.
  for (const Event& e : events) engine.Ingest(e);
  sim.RunUntilIdle();
  ASSERT_TRUE(engine.Idle());

  Graph reference;
  ASSERT_TRUE(reference.ApplyAll(events).ok());
  const CsrGraph csr = CsrGraph::FromGraph(reference);
  PageRankOptions pr_options;
  pr_options.tolerance = 1e-12;
  const PageRankResult exact = PageRank(csr, pr_options);
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_NEAR(engine.RankOf(csr.IdOf(v)), exact.ranks[v], 0.015)
        << "vertex " << csr.IdOf(v);
  }
}

TEST(ChronoLiteTest, TopRanksOrderedAndNormalized) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  // Star: everyone points to vertex 0.
  std::vector<Event> events;
  events.push_back(Event::AddVertex(0));
  for (VertexId v = 1; v <= 20; ++v) {
    events.push_back(Event::AddVertex(v));
    events.push_back(Event::AddEdge(v, 0));
  }
  IngestAll(sim, engine, events);
  const auto top = engine.TopRanks(5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].first, 0u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].second, top[i - 1].second);
  }
}

TEST(ChronoLiteTest, BurstLeavesBacklogThatDrains) {
  Simulator sim;
  ChronoLiteOptions options;
  options.update_cost = Duration::FromMillis(1);  // slow workers
  ChronoLite engine(&sim, options);
  const auto events = RandomStream(50, 200, 3);
  // Inject the entire stream at one instant (a burst far beyond capacity).
  for (const Event& e : events) engine.Ingest(e);
  sim.RunUntil(sim.Now() + Duration::FromMillis(10));
  size_t total_queued = 0;
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    total_queued += engine.WorkerQueueLength(i);
  }
  EXPECT_GT(total_queued, 50u);
  EXPECT_FALSE(engine.Idle());
  // Eventually the backlog drains and computation completes.
  sim.RunUntilIdle();
  EXPECT_TRUE(engine.Idle());
  EXPECT_EQ(engine.updates_applied(), events.size());
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    EXPECT_EQ(engine.WorkerQueueLength(i), 0u);
  }
}

TEST(ChronoLiteTest, ComputationContinuesAfterStreamEnds) {
  // The Fig. 3d signature: work continues after the last ingest because
  // residual messages are still in flight.
  Simulator sim;
  ChronoLiteOptions options;
  options.pushes_per_message = 1;
  options.pushes_per_idle_task = 2;
  ChronoLite engine(&sim, options);
  const auto events = RandomStream(60, 300, 4);
  for (const Event& e : events) engine.Ingest(e);
  const Timestamp ingest_done = sim.Now();
  sim.RunUntilIdle();
  EXPECT_GT((sim.Now() - ingest_done).millis(), 10);
  EXPECT_TRUE(engine.Idle());
}

TEST(ChronoLiteTest, ResidualMessagesCrossWorkers) {
  Simulator sim;
  ChronoLiteOptions options;
  options.num_workers = 4;
  ChronoLite engine(&sim, options);
  const auto events = RandomStream(40, 160, 5);
  IngestAll(sim, engine, events);
  // Random edges cross partitions, so remote residual traffic must occur.
  EXPECT_GT(engine.residual_messages(), 100u);
}

TEST(ChronoLiteTest, OpsProcessedAccumulate) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  const auto events = RandomStream(30, 60, 6);
  IngestAll(sim, engine, events);
  uint64_t total_ops = 0;
  for (size_t i = 0; i < engine.num_workers(); ++i) {
    total_ops += engine.WorkerOpsProcessed(i);
  }
  // At least one op per update message.
  EXPECT_GE(total_ops, events.size());
}

TEST(ChronoLiteTest, Level2HooksFire) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  size_t queue_samples = 0;
  size_t message_samples = 0;
  engine.hooks().Attach("queue_length.0", [&](double) { ++queue_samples; });
  engine.hooks().Attach("message_processed.0",
                        [&](double) { ++message_samples; });
  // Vertex 0 and 4 land on worker 0 (id % 4).
  engine.Ingest(Event::AddVertex(0));
  engine.Ingest(Event::AddVertex(4));
  sim.RunUntilIdle();
  EXPECT_EQ(queue_samples, 2u);
  EXPECT_EQ(message_samples, 2u);
}

TEST(ChronoLiteTest, CollectMetricsHasPerWorkerEntries) {
  Simulator sim;
  ChronoLiteOptions options;
  options.num_workers = 3;
  ChronoLite engine(&sim, options);
  engine.Ingest(Event::AddVertex(1));
  sim.RunUntilIdle();
  const auto metrics = engine.CollectMetrics();
  size_t queue_metrics = 0;
  for (const auto& [name, value] : metrics) {
    if (name.find("queue_length.") == 0) ++queue_metrics;
  }
  EXPECT_EQ(queue_metrics, 3u);

  auto collect = [&engine] {
    std::map<std::string, double> by_name;
    for (const auto& [name, value] : engine.CollectMetrics()) {
      EXPECT_TRUE(by_name.emplace(name, value).second) << name;
    }
    return by_name;
  };
  // A burst backlogs the broker links at once; a few milliseconds later
  // residual batches sit in the worker queues next to updates, and the
  // deltas counter matches the engine's.
  for (const Event& e : RandomStream(60, 400, 11)) engine.Ingest(e);
  auto by_name = collect();
  ASSERT_TRUE(by_name.contains("broker_link_backlog_s"));
  EXPECT_GT(by_name["broker_link_backlog_s"], 0.0);
  sim.RunUntil(sim.Now() + Duration::FromMillis(5));
  by_name = collect();
  ASSERT_TRUE(by_name.contains("residual_deltas"));
  EXPECT_EQ(by_name["residual_deltas"],
            static_cast<double>(engine.residual_deltas()));
  EXPECT_GE(by_name["residual_deltas"], by_name["residual_messages"]);
  double queued_batches = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    const std::string batches = "queued_residual_batches." + std::to_string(i);
    const std::string length = "queue_length." + std::to_string(i);
    ASSERT_TRUE(by_name.contains(batches)) << batches;
    EXPECT_LE(by_name[batches], by_name[length]);
    queued_batches += by_name[batches];
  }
  EXPECT_GT(queued_batches, 0.0);

  sim.RunUntilIdle();
  for (const auto& [name, value] : engine.CollectMetrics()) {
    if (name.find("queued_residual_batches.") == 0 ||
        name == "broker_link_backlog_s") {
      EXPECT_EQ(value, 0.0) << name;
    }
  }
}

TEST(ChronoLiteTest, SameStreamGivesBitIdenticalResults) {
  // Residual batches go out in first-insertion order, so two engines fed
  // the same stream agree bit for bit, mid-run and after draining.
  const auto events = RandomStream(80, 600, 12);
  auto run = [&events](Duration stop_after) {
    Simulator sim;
    ChronoLiteOptions options;
    options.rank.push_threshold = 1e-3;
    ChronoLite engine(&sim, options);
    for (size_t i = 0; i < events.size(); ++i) {
      sim.ScheduleAt(Timestamp::FromMicros(static_cast<int64_t>(i) * 200),
                     [&engine, &e = events[i]] { engine.Ingest(e); });
    }
    sim.RunUntil(Timestamp() + stop_after);
    return std::make_pair(engine.AllRanks(), engine.CollectMetrics());
  };
  for (const Duration stop : {Duration::FromMillis(60),
                              Duration::FromSeconds(30.0)}) {
    const auto a = run(stop);
    const auto b = run(stop);
    ASSERT_FALSE(a.first.empty());
    ASSERT_EQ(a.first.size(), b.first.size());
    for (const auto& [v, rank] : a.first) {
      auto it = b.first.find(v);
      ASSERT_NE(it, b.first.end()) << v;
      EXPECT_EQ(std::memcmp(&rank, &it->second, sizeof(double)), 0) << v;
    }
    EXPECT_EQ(a.second, b.second);
  }
}

TEST(ChronoLiteTest, VertexRemovalDropsRank) {
  Simulator sim;
  ChronoLite engine(&sim, ChronoLiteOptions{});
  std::vector<Event> events = {Event::AddVertex(1), Event::AddVertex(2)};
  IngestAll(sim, engine, events);
  EXPECT_GT(engine.RankOf(2), 0.0);
  engine.Ingest(Event::RemoveVertex(2));
  sim.RunUntilIdle();
  EXPECT_EQ(engine.RankOf(2), 0.0);
}

}  // namespace
}  // namespace graphtides
