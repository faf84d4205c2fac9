// Social-network use case (§2.4): maintain per-user influence ranks on an
// evolving follower graph and detect trending users — accounts that attract
// disproportionately many new followers within a sliding window.
//
// The stream contains an organic phase and a "viral moment" phase in which
// one mid-tier user suddenly attracts followers; the trend detector flags
// the account long before it tops the influence ranking.
//
// Build & run:  ./build/examples/social_network
#include <algorithm>
#include <cstdio>

#include "algorithms/online_pagerank.h"
#include "analysis/trend.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "graph/graph.h"
#include "sim/virtual_replayer.h"

using namespace graphtides;

namespace {

/// A model wrapper that makes one existing user go viral in a round window:
/// during the window most follow edges target the chosen user.
class ViralMomentModel : public SocialNetworkModel {
 public:
  ViralMomentModel(uint64_t viral_start, uint64_t viral_end)
      : viral_start_(viral_start), viral_end_(viral_end) {}

  std::optional<EdgeId> SelectEdge(EventType type,
                                   GeneratorContext& ctx) override {
    if (type == EventType::kAddEdge && InViralWindow(ctx.round())) {
      if (viral_user_ == 0) {
        // Pick a low-profile existing user when the moment starts.
        auto pick = ctx.topology().DegreeBiasedVertex(ctx.rng(), -0.5);
        if (pick.has_value()) viral_user_ = *pick;
      }
      if (viral_user_ != 0 && ctx.rng().NextBool(0.8)) {
        for (int attempt = 0; attempt < 16; ++attempt) {
          auto follower = ctx.topology().UniformVertex(ctx.rng());
          if (follower.has_value() && *follower != viral_user_ &&
              !ctx.topology().HasEdge(*follower, viral_user_)) {
            return EdgeId{*follower, viral_user_};
          }
        }
      }
    }
    return SocialNetworkModel::SelectEdge(type, ctx);
  }

  VertexId viral_user() const { return viral_user_; }

 private:
  bool InViralWindow(uint64_t round) const {
    return round >= viral_start_ && round < viral_end_;
  }
  uint64_t viral_start_;
  uint64_t viral_end_;
  VertexId viral_user_ = 0;
};

}  // namespace

int main() {
  constexpr uint64_t kViralStart = 20000;
  constexpr uint64_t kViralEnd = 26000;
  ViralMomentModel model(kViralStart, kViralEnd);
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 40000;
  gen_options.seed = 2024;
  auto generated = StreamGenerator(&model, gen_options).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  std::printf("stream: %zu events; viral user id: %llu\n",
              generated->events.size(),
              static_cast<unsigned long long>(model.viral_user()));

  // Stream through a virtual-time replayer at 2000 events/s so the trend
  // windows mean something, while the whole run takes milliseconds of wall
  // time.
  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);

  Graph graph;
  OnlinePageRank rank;
  TrendDetectorOptions trend_options;
  trend_options.window = Duration::FromSeconds(3.0);
  trend_options.growth_factor = 4.0;
  trend_options.min_count = 25;
  TrendDetector trends(trend_options);

  Timestamp first_trend_time;
  VertexId first_trend_user = 0;
  // Skip the bootstrap burst: trends are meaningless until organic load
  // has filled two detector windows.
  const Timestamp warmup_until =
      Timestamp() + trend_options.window + trend_options.window;

  size_t edge_count = 0;
  replayer.Start(generated->events, [&](const Event& e, size_t) {
    if (!graph.Apply(e).ok()) return;
    rank.OnEventApplied(e);
    rank.ProcessPending(16);
    if (e.type == EventType::kAddEdge) {
      trends.Observe(e.edge.dst, sim.Now());
      // Poll the detector every 512 edges.
      if (++edge_count % 512 == 0 && first_trend_user == 0 &&
          sim.Now() >= warmup_until) {
        const auto trending = trends.TrendingAt(sim.Now());
        if (!trending.empty() && trending[0].growth > 6.0) {
          first_trend_user = trending[0].key;
          first_trend_time = sim.Now();
        }
      }
    }
  });
  sim.RunUntilIdle();
  while (rank.HasPendingWork()) rank.ProcessPending(100000);

  std::printf("final graph: %zu users, %zu follow edges\n",
              graph.num_vertices(), graph.num_edges());

  if (first_trend_user != 0) {
    std::printf(
        "trend alarm: user %llu flagged at t=%.1fs (viral window starts at "
        "t=%.1fs)\n",
        static_cast<unsigned long long>(first_trend_user),
        first_trend_time.seconds(),
        static_cast<double>(kViralStart) / 2000.0);
    std::printf("  matches injected viral user: %s\n",
                first_trend_user == model.viral_user() ? "yes" : "no");
  } else {
    std::printf("no trend detected (unexpected)\n");
  }

  std::printf("top-5 by online influence rank:\n");
  int i = 0;
  std::vector<std::pair<VertexId, double>> top;
  for (const auto& [user, score] : rank.NormalizedRanks()) {
    top.emplace_back(user, score);
  }
  std::sort(top.begin(), top.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [user, score] : top) {
    std::printf("  %d. user %-8llu rank %.5f%s\n", ++i,
                static_cast<unsigned long long>(user), score,
                user == model.viral_user() ? "   <- went viral" : "");
    if (i == 5) break;
  }
  return 0;
}
