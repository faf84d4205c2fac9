#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "stream/statistics.h"
#include "stream/validator.h"

namespace graphtides {
namespace {

GeneratedStream MustGenerate(GeneratorModel* model, size_t rounds,
                             uint64_t seed) {
  StreamGeneratorOptions options;
  options.rounds = rounds;
  options.seed = seed;
  StreamGenerator generator(model, options);
  auto result = generator.Generate();
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

// --- EventMixModel (Table 3 workload) --------------------------------------

TEST(EventMixModelTest, MixRatiosApproximateConfig) {
  EventMixModelOptions options;
  options.ba = {2000, 50, 10};
  EventMixModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 20000, 7);
  // Count only evolution events (skip the bootstrap prefix).
  size_t counts[6] = {0};
  size_t seen = 0;
  size_t bootstrap_remaining = stream.bootstrap_events;
  for (const Event& e : stream.events) {
    if (!IsGraphOp(e.type)) continue;
    if (bootstrap_remaining > 0) {
      --bootstrap_remaining;
      continue;
    }
    ++counts[static_cast<size_t>(e.type)];
    ++seen;
  }
  ASSERT_GT(seen, 15000u);
  const double total = static_cast<double>(seen);
  EXPECT_NEAR(counts[0] / total, 0.10, 0.02);  // CREATE_VERTEX
  EXPECT_NEAR(counts[1] / total, 0.05, 0.02);  // REMOVE_VERTEX
  EXPECT_NEAR(counts[2] / total, 0.35, 0.02);  // UPDATE_VERTEX
  EXPECT_NEAR(counts[3] / total, 0.35, 0.02);  // CREATE_EDGE
  EXPECT_NEAR(counts[4] / total, 0.15, 0.02);  // REMOVE_EDGE
  EXPECT_EQ(counts[5], 0u);                    // UPDATE_EDGE (0%)
}

TEST(EventMixModelTest, StreamValidates) {
  EventMixModelOptions options;
  options.ba = {500, 20, 5};
  EventMixModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 5000, 11);
  EXPECT_TRUE(ValidateStream(stream.events).valid());
}

TEST(EventMixModelTest, ErdosRenyiBootstrapWorks) {
  EventMixModelOptions options;
  options.bootstrap = EventMixModelOptions::Bootstrap::kErdosRenyi;
  options.er = {200, 0.05};
  EventMixModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 1000, 13);
  EXPECT_TRUE(ValidateStream(stream.events).valid());
  EXPECT_EQ(stream.bootstrap_events >= 200, true);
}

TEST(EventMixModelTest, StatePayloadsAreJson) {
  EventMixModelOptions options;
  options.ba = {100, 10, 3};
  EventMixModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 500, 17);
  for (const Event& e : stream.events) {
    if (e.type == EventType::kUpdateVertex) {
      EXPECT_EQ(e.payload.front(), '{');
      EXPECT_EQ(e.payload.back(), '}');
    }
  }
}

// --- SocialNetworkModel -----------------------------------------------------

TEST(SocialNetworkModelTest, NetworkGrows) {
  SocialNetworkModel model;
  const GeneratedStream stream = MustGenerate(&model, 10000, 3);
  // Growth-dominated mix: final vertices well above the 100 seed users.
  EXPECT_GT(stream.final_vertices, 500u);
  EXPECT_GT(stream.final_edges, stream.final_vertices);
  EXPECT_TRUE(ValidateStream(stream.events).valid());
}

TEST(SocialNetworkModelTest, InfluencersEmerge) {
  SocialNetworkModel model;
  const GeneratedStream stream = MustGenerate(&model, 20000, 5);
  // Track in-degrees; preferential attachment must concentrate followers.
  std::unordered_map<VertexId, size_t> in_degree;
  StreamValidator shadow;
  for (const Event& e : stream.events) {
    if (shadow.Check(e).ok() && e.type == EventType::kAddEdge) {
      ++in_degree[e.edge.dst];
    }
  }
  size_t max_in = 0;
  size_t total = 0;
  for (const auto& [v, d] : in_degree) {
    max_in = std::max(max_in, d);
    total += d;
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(in_degree.size());
  EXPECT_GT(static_cast<double>(max_in), 10.0 * mean);
}

TEST(SocialNetworkModelTest, MostlyGrowthEvents) {
  SocialNetworkModel model;
  const GeneratedStream stream = MustGenerate(&model, 5000, 9);
  const StreamStatistics stats = ComputeStreamStatistics(stream.events);
  EXPECT_GT(stats.add_ratio, 0.8);
}

// --- DdosModel ---------------------------------------------------------------

TEST(DdosModelTest, AttackFocusesOnVictim) {
  DdosModelOptions options;
  options.attacks = {{2000, 4000}};
  DdosModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 6000, 21);
  ASSERT_TRUE(ValidateStream(stream.events).valid());
  const VertexId victim = model.victim();

  // Compare update traffic toward the victim inside vs outside the window.
  size_t in_window_victim = 0;
  size_t in_window_total = 0;
  size_t out_window_victim = 0;
  size_t out_window_total = 0;
  size_t round = 0;
  size_t bootstrap_remaining = stream.bootstrap_events;
  for (const Event& e : stream.events) {
    if (!IsGraphOp(e.type)) continue;
    if (bootstrap_remaining > 0) {
      --bootstrap_remaining;
      continue;
    }
    ++round;
    if (e.type != EventType::kUpdateEdge) continue;
    const bool in_window = round >= 2000 && round < 4000;
    if (in_window) {
      ++in_window_total;
      if (e.edge.dst == victim) ++in_window_victim;
    } else {
      ++out_window_total;
      if (e.edge.dst == victim) ++out_window_victim;
    }
  }
  ASSERT_GT(in_window_total, 100u);
  ASSERT_GT(out_window_total, 100u);
  const double in_rate = static_cast<double>(in_window_victim) /
                         static_cast<double>(in_window_total);
  const double out_rate = static_cast<double>(out_window_victim) /
                          static_cast<double>(out_window_total);
  EXPECT_GT(in_rate, 0.5);
  EXPECT_GT(in_rate, 3.0 * out_rate);
}

TEST(DdosModelTest, ServersNeverRemoved) {
  DdosModelOptions options;
  options.attacks = {{500, 1500}};
  DdosModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 3000, 23);
  for (const Event& e : stream.events) {
    if (e.type == EventType::kRemoveVertex) {
      for (VertexId s : model.servers()) {
        EXPECT_NE(e.vertex, s);
      }
    }
  }
}

TEST(DdosModelTest, BotnetClientsLabeled) {
  DdosModelOptions options;
  options.attacks = {{100, 1100}};
  DdosModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 2000, 25);
  size_t botnet_vertices = 0;
  for (const Event& e : stream.events) {
    if (e.type == EventType::kAddVertex &&
        e.payload.find("botnet") != std::string::npos) {
      ++botnet_vertices;
    }
  }
  EXPECT_GT(botnet_vertices, 10u);
}

// --- BlockchainModel ---------------------------------------------------------

TEST(BlockchainModelTest, StreamValidates) {
  BlockchainModel model;
  const GeneratedStream stream = MustGenerate(&model, 5000, 31);
  EXPECT_TRUE(ValidateStream(stream.events).valid());
}

TEST(BlockchainModelTest, MoneyIsConserved) {
  BlockchainModelOptions options;
  options.initial_wallets = 50;
  options.initial_balance = 10000;
  BlockchainModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 5000, 33);
  // Total balance across all wallets seen must equal minted supply.
  StreamValidator shadow;
  std::unordered_set<VertexId> wallets;
  for (const Event& e : stream.events) {
    if (shadow.Check(e).ok() && IsVertexOp(e.type)) {
      wallets.insert(e.vertex);
    }
  }
  int64_t total = 0;
  for (VertexId w : wallets) total += model.BalanceOf(w);
  EXPECT_EQ(total, 50 * 10000);
}

TEST(BlockchainModelTest, NoNegativeBalances) {
  BlockchainModel model;
  const GeneratedStream stream = MustGenerate(&model, 5000, 35);
  StreamValidator shadow;
  std::unordered_set<VertexId> wallets;
  for (const Event& e : stream.events) {
    if (shadow.Check(e).ok() && IsVertexOp(e.type)) wallets.insert(e.vertex);
  }
  for (VertexId w : wallets) {
    EXPECT_GE(model.BalanceOf(w), 0) << "wallet " << w;
  }
}

TEST(BlockchainModelTest, RepeatTransactionsUseUpdateEdge) {
  // A small, closed wallet population saturates the pair space, so repeat
  // contacts (UPDATE_EDGE) come to dominate first contacts (CREATE_EDGE).
  BlockchainModelOptions options;
  options.initial_wallets = 15;
  options.p_new_wallet = 0.0;
  options.p_transaction = 0.9;
  options.p_balance_snapshot = 0.1;
  BlockchainModel model(options);
  const GeneratedStream stream = MustGenerate(&model, 8000, 37);
  const StreamStatistics stats = ComputeStreamStatistics(stream.events);
  EXPECT_GT(stats.by_type[static_cast<size_t>(EventType::kUpdateEdge)],
            stats.by_type[static_cast<size_t>(EventType::kAddEdge)]);
  // Both kinds of transaction must occur.
  EXPECT_GT(stats.by_type[static_cast<size_t>(EventType::kAddEdge)], 0u);
}


// --- Property sweep: every model x several seeds -----------------------------

struct SweepCase {
  std::string model;
  uint64_t seed;
};

// The printed parameter ends up in each ctest name. Without this printer
// gtest dumps the object's raw bytes, heap pointers included, so the names
// changed from one process to the next.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.model << "_seed" << c.seed;
}

class ModelSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  std::unique_ptr<GeneratorModel> MakeModel() const {
    const std::string& name = GetParam().model;
    if (name == "social") return std::make_unique<SocialNetworkModel>();
    if (name == "ddos") {
      DdosModelOptions options;
      options.attacks = {{1000, 2000}};
      return std::make_unique<DdosModel>(options);
    }
    if (name == "blockchain") return std::make_unique<BlockchainModel>();
    EventMixModelOptions options;
    options.ba = {300, 15, 4};
    return std::make_unique<EventMixModel>(options);
  }
};

TEST_P(ModelSweepTest, StreamValidAndDeterministic) {
  auto model_a = MakeModel();
  auto model_b = MakeModel();
  StreamGeneratorOptions gen;
  gen.rounds = 3000;
  gen.seed = GetParam().seed;
  auto a = StreamGenerator(model_a.get(), gen).Generate();
  auto b = StreamGenerator(model_b.get(), gen).Generate();
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  // Exactly-once replayability depends on validity (Â§3.2).
  const StreamValidationReport report = ValidateStream(a->events);
  EXPECT_TRUE(report.valid())
      << GetParam().model << " seed " << GetParam().seed << ": "
      << (report.violations.empty() ? "" : report.violations[0].reason);
  // Same model + same seed -> identical stream.
  EXPECT_EQ(a->events, b->events);
  // The stream actually does something.
  EXPECT_GT(a->evolution_events, 2000u);
  EXPECT_GT(report.final_vertices, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModelSweepTest,
    ::testing::Values(
        SweepCase{"social", 1}, SweepCase{"social", 2},
        SweepCase{"social", 1234567}, SweepCase{"ddos", 1},
        SweepCase{"ddos", 99}, SweepCase{"blockchain", 1},
        SweepCase{"blockchain", 4242}, SweepCase{"mix", 1},
        SweepCase{"mix", 77}));

}  // namespace
}  // namespace graphtides
