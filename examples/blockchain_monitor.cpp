// Blockchain use case (§2.4): consume a stream of ledger transactions,
// maintain the combined transaction/wallet graph, and provide live
// statistics — balances, average transaction values, and the distribution
// of holdings over time.
//
// Build & run:  ./build/examples/blockchain_monitor
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "algorithms/communities.h"
#include "algorithms/statistics.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "generator/models/blockchain_model.h"
#include "generator/stream_generator.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "sim/virtual_replayer.h"

using namespace graphtides;

namespace {

/// Pulls `"key":<int>` out of the JSON-ish state payloads the blockchain
/// model writes.
int64_t ExtractInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0;
  size_t end = pos + needle.size();
  while (end < json.size() &&
         (std::isdigit(static_cast<unsigned char>(json[end])) ||
          json[end] == '-')) {
    ++end;
  }
  auto parsed = ParseInt64(
      std::string_view(json).substr(pos + needle.size(),
                                    end - pos - needle.size()));
  return parsed.ok() ? *parsed : 0;
}

}  // namespace

int main() {
  BlockchainModelOptions model_options;
  model_options.initial_wallets = 200;
  model_options.initial_balance = 1000000;
  BlockchainModel model(model_options);
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 50000;
  gen_options.seed = 99;
  auto generated = StreamGenerator(&model, gen_options).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  std::printf("ledger stream: %zu events\n", generated->events.size());

  Simulator sim;
  VirtualReplayer replayer(&sim, 5000.0);

  Graph graph;
  // Live statistics maintained from the stream alone.
  RunningStats tx_values;
  uint64_t transactions = 0;
  std::unordered_map<VertexId, int64_t> balances;  // from balance snapshots

  // Periodic dashboard lines.
  Duration report_every = Duration::FromSeconds(2.0);
  Timestamp next_report = Timestamp() + report_every;

  replayer.Start(generated->events, [&](const Event& e, size_t) {
    if (!graph.Apply(e).ok()) return;
    switch (e.type) {
      case EventType::kAddEdge:
      case EventType::kUpdateEdge: {
        const int64_t amount = ExtractInt(e.payload, "amount");
        if (amount > 0) {
          ++transactions;
          tx_values.Add(static_cast<double>(amount));
        }
        break;
      }
      case EventType::kAddVertex:
      case EventType::kUpdateVertex:
        balances[e.vertex] = ExtractInt(e.payload, "balance");
        break;
      default:
        break;
    }
    if (sim.Now() >= next_report) {
      next_report = next_report + report_every;
      std::printf(
          "t=%5.1fs  wallets=%5zu channels=%6zu txs=%7llu avg_value=%9.1f\n",
          sim.Now().seconds(), graph.num_vertices(), graph.num_edges(),
          static_cast<unsigned long long>(transactions), tx_values.mean());
    }
  });
  sim.RunUntilIdle();

  // Final report: holdings distribution and exchange-like hubs.
  std::printf("\n--- final ledger state ---\n");
  std::printf("transactions: %llu, mean value %.1f (min %.0f / max %.0f)\n",
              static_cast<unsigned long long>(transactions), tx_values.mean(),
              tx_values.min(), tx_values.max());

  std::vector<int64_t> holdings;
  for (const auto& [wallet, balance] : balances) {
    holdings.push_back(balance);
  }
  std::sort(holdings.rbegin(), holdings.rend());
  int64_t total = 0;
  for (int64_t h : holdings) total += h;
  if (!holdings.empty() && total > 0) {
    int64_t top_decile = 0;
    const size_t decile = std::max<size_t>(1, holdings.size() / 10);
    for (size_t i = 0; i < decile; ++i) top_decile += holdings[i];
    std::printf(
        "holdings (from %zu snapshotted wallets): top 10%% of wallets hold "
        "%.1f%% of snapshotted supply\n",
        holdings.size(),
        100.0 * static_cast<double>(top_decile) / static_cast<double>(total));
  }

  const CsrGraph csr = CsrGraph::FromGraph(graph);
  const GraphStatistics stats = ComputeGraphStatistics(csr);
  std::printf("transaction graph: %s\n", stats.ToString().c_str());
  const auto cores = CoreNumbers(csr);
  uint32_t max_core = 0;
  for (uint32_t c : cores) max_core = std::max(max_core, c);
  std::printf("densest trading core: k = %u\n", max_core);
  return 0;
}
