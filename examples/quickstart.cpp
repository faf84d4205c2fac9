// Quickstart: the minimal GraphTides loop.
//
//  1. generate a graph stream (social-network model),
//  2. write it to a stream file and replay it at a fixed rate,
//  3. maintain a graph and an online influence rank while ingesting,
//  4. compare the online approximation against the exact batch result.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <filesystem>

#include "algorithms/online_pagerank.h"
#include "algorithms/pagerank.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "replayer/sharded_replayer.h"
#include "stream/statistics.h"
#include "stream/stream_file.h"

using namespace graphtides;

int main() {
  // --- 1. Generate -------------------------------------------------------
  SocialNetworkModel model;
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 20000;
  gen_options.seed = 7;
  gen_options.marker_interval = 5000;
  StreamGenerator generator(&model, gen_options);
  auto generated = generator.Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  std::printf("generated %zu events (%zu bootstrap, %zu evolution)\n",
              generated->events.size(), generated->bootstrap_events,
              generated->evolution_events);
  std::printf("%s\n",
              ComputeStreamStatistics(generated->events).ToString().c_str());

  // --- 2. Write + replay -------------------------------------------------
  const std::string path =
      (std::filesystem::temp_directory_path() / "quickstart.gts").string();
  if (Status st = WriteStreamFile(path, generated->events); !st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Graph graph;
  OnlinePageRank rank;
  CallbackSink sink([&](const Event& e) {
    GT_RETURN_NOT_OK(graph.Apply(e));
    rank.OnEventApplied(e);
    rank.ProcessPending(32);  // online computation interleaved with ingest
    return Status::OK();
  });

  ShardedReplayerOptions replay_options;
  replay_options.total_rate_eps = 100000.0;
  ShardedReplayer replayer(replay_options);
  auto run = replayer.ReplayFile(path, {&sink});
  std::filesystem::remove(path);
  if (!run.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const ReplayStats& stats = run->aggregate;
  std::printf("replayed %zu events in %.2f s (%.0f events/s achieved)\n",
              stats.events_delivered, stats.Elapsed().seconds(),
              stats.AchievedRateEps());
  for (const MarkerRecord& m : stats.marker_log) {
    std::printf("  marker %-16s after %zu events\n", m.label.c_str(),
                m.events_before);
  }

  // --- 3. Drain the online computation ------------------------------------
  while (rank.HasPendingWork()) rank.ProcessPending(100000);

  // --- 4. Compare against the exact batch result --------------------------
  const CsrGraph csr = CsrGraph::FromGraph(graph);
  const PageRankResult exact = PageRank(csr);
  std::printf("\nfinal graph: %zu vertices, %zu edges\n",
              graph.num_vertices(), graph.num_edges());
  std::printf("top influencers (online vs exact):\n");
  for (CsrGraph::Index idx : TopKByRank(exact.ranks, 5)) {
    const VertexId user = csr.IdOf(idx);
    std::printf("  user %-8llu online=%.5f exact=%.5f\n",
                static_cast<unsigned long long>(user), rank.RankOf(user),
                exact.ranks[idx]);
  }
  std::vector<double> approx(csr.num_vertices(), 0.0);
  for (CsrGraph::Index v = 0; v < csr.num_vertices(); ++v) {
    approx[v] = rank.RankOf(csr.IdOf(v));
  }
  std::printf("median relative rank error: %.4f\n",
              MedianRelativeError(approx, exact.ranks));
  return 0;
}
