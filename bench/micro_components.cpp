// Component microbenchmarks (google-benchmark): the framework's own hot
// paths — event (de)serialization, graph mutation, CSR construction, the
// generator round loop, the rate controller, the SPSC queue, and the batch
// algorithms on realistic snapshots. These back the performance claims in
// DESIGN.md and catch regressions in the measurement substrate itself (a
// slow replayer would distort every platform evaluation built on it).
#include <benchmark/benchmark.h>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/triangles.h"
#include "common/random.h"
#include "generator/bootstrap.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "replayer/rate_controller.h"
#include "replayer/spsc_queue.h"
#include "stream/event.h"
#include "stream/event_view.h"
#include "stream/stream_file.h"

namespace graphtides {
namespace {

std::vector<Event> SocialStream(size_t rounds) {
  SocialNetworkModel model;
  StreamGeneratorOptions options;
  options.rounds = rounds;
  options.seed = 1;
  options.emit_phase_markers = false;
  auto stream = StreamGenerator(&model, options).Generate();
  return std::move(stream).value().events;
}

Graph BaGraph(size_t n) {
  TopologyIndex topology;
  Rng rng(3);
  GeneratorContext ctx(&topology, &rng);
  std::vector<Event> events;
  GraphBuilder builder(&topology, &ctx, &events);
  (void)BootstrapBarabasiAlbert(builder, ctx, {n, 20, 5});
  Graph graph;
  (void)graph.ApplyAll(events);
  return graph;
}

void BM_EventSerialize(benchmark::State& state) {
  const Event e = Event::AddEdge(123456, 654321, R"({"w":42,"since":7})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.ToCsvLine());
  }
}
BENCHMARK(BM_EventSerialize);

void BM_EventParse(benchmark::State& state) {
  const std::string line =
      Event::AddEdge(123456, 654321, R"({"w":42,"since":7})").ToCsvLine();
  for (auto _ : state) {
    auto parsed = ParseEventLine(line);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_EventParse);

// The replay decode thread's parser on the two line shapes of a
// saturate-csv stream: an unquoted edge and a JSON state whose quotes the
// CSV rendering doubles.
void BM_EventParseView(benchmark::State& state) {
  const std::string line =
      state.range(0) == 0
          ? Event::AddEdge(123456, 654321).ToCsvLine()
          : Event::UpdateVertex(4355, R"({"v":4355,"r":1})").ToCsvLine();
  std::string scratch;
  for (auto _ : state) {
    auto parsed = ParseEventLineView(line, &scratch);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetLabel(line);
}
BENCHMARK(BM_EventParseView)->Arg(0)->Arg(1);

void BM_GraphApplyStream(benchmark::State& state) {
  const std::vector<Event> events = SocialStream(20000);
  for (auto _ : state) {
    Graph graph;
    for (const Event& e : events) {
      benchmark::DoNotOptimize(graph.Apply(e).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_GraphApplyStream);

void BM_GeneratorRound(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SocialNetworkModel model;
    StreamGeneratorOptions options;
    options.rounds = 10000;
    options.seed = 5;
    state.ResumeTiming();
    auto stream = StreamGenerator(&model, options).Generate();
    benchmark::DoNotOptimize(stream);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_GeneratorRound);

void BM_CsrConstruction(benchmark::State& state) {
  const Graph graph = BaGraph(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const CsrGraph csr = CsrGraph::FromGraph(graph);
    benchmark::DoNotOptimize(csr.num_edges());
  }
}
BENCHMARK(BM_CsrConstruction)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_PageRank(benchmark::State& state) {
  const CsrGraph csr =
      CsrGraph::FromGraph(BaGraph(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    const PageRankResult pr = PageRank(csr);
    benchmark::DoNotOptimize(pr.ranks.data());
  }
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TriangleCount(benchmark::State& state) {
  const CsrGraph csr =
      CsrGraph::FromGraph(BaGraph(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountTriangles(csr));
  }
}
BENCHMARK(BM_TriangleCount)->Arg(1000)->Arg(10000);

void BM_Wcc(benchmark::State& state) {
  const CsrGraph csr = CsrGraph::FromGraph(BaGraph(50000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(WeaklyConnectedComponents(csr).num_components);
  }
}
BENCHMARK(BM_Wcc);

void BM_SpscQueueRoundTrip(benchmark::State& state) {
  SpscQueue<Event> queue(1024);
  const Event e = Event::AddVertex(42, "state");
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.TryPush(e));
    benchmark::DoNotOptimize(queue.TryPop());
  }
}
BENCHMARK(BM_SpscQueueRoundTrip);

void BM_RateControllerSchedule(benchmark::State& state) {
  VirtualClock clock;
  RateController rate(1e6, &clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rate.NextDeadline());
  }
}
BENCHMARK(BM_RateControllerSchedule);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 1.0);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_StreamTextRoundTrip(benchmark::State& state) {
  const std::vector<Event> events = SocialStream(5000);
  for (auto _ : state) {
    const std::string text = FormatStreamText(events);
    auto parsed = ParseStreamText(text);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_StreamTextRoundTrip);

}  // namespace
}  // namespace graphtides
