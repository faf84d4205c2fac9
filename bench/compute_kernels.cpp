// Compute-kernel thread sweep: CSR snapshot build, PageRank, weakly
// connected components, and triangle counting from the parallel compute
// layer (src/common/parallel.h), each timed at 1/2/4/host_cores worker
// threads over a Barabasi-Albert bootstrap graph.
//
// Besides the timings the bench re-checks the layer's core contract on
// every run: the results at every thread count must be bit-identical to
// the single-threaded reference (ranks compared exactly, not by
// tolerance) — a determinism failure exits 1 regardless of flags.
//
//   --quick         small workload, fewer repetitions (CI smoke)
//   --records DIR   write one run record per (kernel, threads) cell, e.g.
//                   workload compute_kernels/wcc/t1, metric throughput in
//                   edges/s (records.h; bench/ab.py compares them)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/components.h"
#include "algorithms/pagerank.h"
#include "algorithms/triangles.h"
#include "common/flags.h"
#include "generator/bootstrap.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "harness/report.h"
#include "records.h"

using namespace graphtides;

namespace {

struct KernelObservation {
  std::string kernel;
  size_t threads = 1;
  double millis = 0.0;
  double edges_per_sec = 0.0;
};

/// Fixed iteration count and zero tolerance pin the PageRank work per run,
/// so the timings compare like for like across thread counts.
constexpr size_t kPageRankIterations = 20;

constexpr uint64_t kGraphSeed = 7;

double MedianMillis(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Times `fn` (which returns the kernel result) `reps` times; stores the
/// median wall time and keeps the last result for the determinism check.
template <typename Fn>
auto TimeKernel(const char* kernel, size_t threads, size_t edges, int reps,
                std::vector<KernelObservation>* out, Fn fn) {
  std::vector<double> times;
  auto result = fn();
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    result = fn();
    times.push_back(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
  }
  KernelObservation obs;
  obs.kernel = kernel;
  obs.threads = threads;
  obs.millis = MedianMillis(std::move(times));
  obs.edges_per_sec =
      obs.millis > 0.0 ? static_cast<double>(edges) / (obs.millis / 1e3) : 0.0;
  out->push_back(obs);
  return result;
}

Graph MakeGraph(bool quick) {
  TopologyIndex topology;
  Rng rng(kGraphSeed);
  GeneratorContext ctx(&topology, &rng);
  std::vector<Event> events;
  GraphBuilder builder(&topology, &ctx, &events);
  const BarabasiAlbertParams params{quick ? 20000u : 120000u, 100, 5};
  if (Status st = BootstrapBarabasiAlbert(builder, ctx, params); !st.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  Graph graph;
  if (Status st = graph.ApplyAll(events); !st.ok()) {
    std::fprintf(stderr, "apply failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return graph;
}

bool SameCsr(const CsrGraph& a, const CsrGraph& b) {
  if (a.ids() != b.ids() || a.out_offsets() != b.out_offsets() ||
      a.in_offsets() != b.in_offsets()) {
    return false;
  }
  for (CsrGraph::Index v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.OutNeighbors(v);
    const auto bo = b.OutNeighbors(v);
    const auto ai = a.InNeighbors(v);
    const auto bi = b.InNeighbors(v);
    if (!std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) ||
        !std::equal(ai.begin(), ai.end(), bi.begin(), bi.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string records_dir;
  FlagTable flags("compute_kernels");
  flags.Add("quick", &quick);
  flags.Add("records", &records_dir);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  const int reps = quick ? 3 : 5;

  const Graph graph = MakeGraph(quick);
  const size_t edges = graph.num_edges();

  // Thread sweep: 1/2/4/host_cores, deduplicated and sorted. On a small
  // host the oversubscribed counts still run (and must still be exact);
  // they just stop being faster.
  std::vector<size_t> sweep = {1, 2, 4,
                               std::max(1u, std::thread::hardware_concurrency())};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());

  std::printf("%s", SectionHeader(
      "Compute kernels — thread sweep over a BA bootstrap graph").c_str());
  std::printf("input: %zu vertices, %zu edges; host cores: %u; "
              "%d repetitions (median)\n\n",
              graph.num_vertices(), edges,
              std::thread::hardware_concurrency(), reps);

  PageRankOptions pr_options;
  pr_options.max_iterations = kPageRankIterations;
  pr_options.tolerance = 0.0;

  std::vector<KernelObservation> results;
  // threads = 1 results are the reference every other cell must match.
  CsrGraph ref_csr;
  PageRankResult ref_pr;
  ComponentsResult ref_wcc;
  uint64_t ref_triangles = 0;
  bool deterministic = true;

  TextTable table({"kernel", "threads", "median [ms]", "edges/s"});
  for (const size_t t : sweep) {
    const CsrGraph csr =
        TimeKernel("csr_build", t, edges, reps, &results,
                   [&] { return CsrGraph::FromGraph(graph, t); });
    pr_options.threads = t;
    const PageRankResult pr =
        TimeKernel("pagerank", t, edges, reps, &results,
                   [&] { return PageRank(csr, pr_options); });
    const ComponentsResult wcc = TimeKernel(
        "wcc", t, edges, reps, &results,
        [&] { return WeaklyConnectedComponents(csr, {.threads = t}); });
    const uint64_t triangles =
        TimeKernel("triangles", t, edges, reps, &results,
                   [&] { return CountTriangles(csr, t); });

    if (t == sweep.front()) {
      ref_csr = csr;
      ref_pr = pr;
      ref_wcc = wcc;
      ref_triangles = triangles;
    } else {
      if (!SameCsr(ref_csr, csr)) {
        std::fprintf(stderr, "DETERMINISM FAILURE: csr_build threads=%zu\n", t);
        deterministic = false;
      }
      if (pr.ranks != ref_pr.ranks || pr.iterations != ref_pr.iterations) {
        std::fprintf(stderr, "DETERMINISM FAILURE: pagerank threads=%zu\n", t);
        deterministic = false;
      }
      if (wcc.component != ref_wcc.component) {
        std::fprintf(stderr, "DETERMINISM FAILURE: wcc threads=%zu\n", t);
        deterministic = false;
      }
      if (triangles != ref_triangles) {
        std::fprintf(stderr, "DETERMINISM FAILURE: triangles threads=%zu\n",
                     t);
        deterministic = false;
      }
    }
  }
  for (const KernelObservation& r : results) {
    table.AddRow({r.kernel, std::to_string(r.threads),
                  TextTable::FormatDouble(r.millis, 2),
                  TextTable::FormatDouble(r.edges_per_sec, 0)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("determinism: every thread count %s the t=%zu reference\n",
              deterministic ? "bit-matched" : "DIVERGED FROM",
              sweep.front());

  for (const KernelObservation& r : results) {
    const std::string cell = r.kernel + "/t" + std::to_string(r.threads);
    bench::WriteThroughputRecord(records_dir, "compute_kernels/" + cell,
                                 kGraphSeed, r.edges_per_sec);
  }
  return deterministic ? 0 : 1;
}
