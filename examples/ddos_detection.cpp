// DDoS detection use case (§2.4): a stream-based graph system supervises a
// set of servers, modelling flows between clients and servers. Individual
// flows look benign; the aggregated graph view exposes the attack — a surge
// of fresh sources and traffic converging on one server — and produces a
// blacklist of attacking clients.
//
// Build & run:  ./build/examples/ddos_detection
#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "analysis/time_series.h"
#include "analysis/trend.h"
#include "generator/models/ddos_model.h"
#include "generator/stream_generator.h"
#include "graph/graph.h"
#include "sim/virtual_replayer.h"

using namespace graphtides;

int main() {
  // Attack windows in evolution rounds; at 2000 ev/s the first attack runs
  // t = 10 s .. 17.5 s, the second t = 30 s .. 35 s.
  DdosModelOptions model_options;
  model_options.attacks = {{20000, 35000}, {60000, 70000}};
  DdosModel model(model_options);
  StreamGeneratorOptions gen_options;
  gen_options.rounds = 80000;
  gen_options.seed = 1337;
  auto generated = StreamGenerator(&model, gen_options).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 generated.status().ToString().c_str());
    return 1;
  }
  std::printf("monitoring %zu servers; stream of %zu events\n",
              model.servers().size(), generated->events.size());

  Simulator sim;
  VirtualReplayer replayer(&sim, 2000.0);

  Graph graph;
  // Per-server inbound traffic trend (new flows + flow updates).
  TrendDetectorOptions trend_options;
  trend_options.window = Duration::FromSeconds(2.0);
  trend_options.growth_factor = 3.0;
  trend_options.min_count = 100;
  TrendDetector inbound(trend_options);

  TimeSeries alarm_series("alarm");
  std::unordered_set<VertexId> blacklist;
  bool under_attack = false;
  VertexId suspected_victim = 0;
  Timestamp attack_detected_at;
  struct Alarm {
    Timestamp time;
    VertexId server;
    uint64_t window_count;
  };
  std::vector<Alarm> alarms;
  // Absolute thresholds with hysteresis: onset needs both growth and a
  // large absolute inbound count; the alarm holds until inbound pressure
  // falls back to normal levels.
  constexpr uint64_t kOnsetCount = 1200;
  constexpr uint64_t kClearCount = 1000;

  size_t events_seen = 0;
  replayer.Start(generated->events, [&](const Event& e, size_t) {
    if (!graph.Apply(e).ok()) return;
    ++events_seen;
    // Inbound pressure signal: every flow creation or update counts toward
    // its destination server.
    if (e.type == EventType::kAddEdge || e.type == EventType::kUpdateEdge) {
      inbound.Observe(e.edge.dst, sim.Now());
    }
    if (events_seen % 500 != 0) return;

    if (!under_attack) {
      const auto trending = inbound.TrendingAt(sim.Now());
      if (!trending.empty() && trending[0].current_count >= kOnsetCount) {
        under_attack = true;
        suspected_victim = trending[0].key;
        attack_detected_at = sim.Now();
        alarms.push_back(
            {sim.Now(), trending[0].key, trending[0].current_count});
        std::printf(
            "t=%6.1fs  ALERT: server %llu inbound x%.1f (%llu evts in "
            "window)\n",
            sim.Now().seconds(),
            static_cast<unsigned long long>(trending[0].key),
            trending[0].growth,
            static_cast<unsigned long long>(trending[0].current_count));
      }
    } else if (inbound.CountInWindow(suspected_victim, sim.Now()) <
               kClearCount) {
      under_attack = false;
      std::printf("t=%6.1fs  attack on server %llu subsided\n",
                  sim.Now().seconds(),
                  static_cast<unsigned long long>(suspected_victim));
    }
    alarm_series.Add(sim.Now(), under_attack ? 1.0 : 0.0);

    // While under attack: blacklist clients whose flows into the victim
    // carry attack-scale traffic — graph-level evidence individual flows
    // cannot give.
    if (under_attack) {
      graph.ForEachInEdge(suspected_victim, [&](VertexId client) {
        const auto flow = graph.GetEdgeState(client, suspected_victim);
        if (!flow.ok()) return;
        // Flow states look like {"bytes":<n>,"pkts":<n>}; attack flows
        // carry an order of magnitude more bytes than benign ones.
        const size_t pos = flow.value().find("\"bytes\":");
        if (pos == std::string::npos) return;
        const long long bytes =
            std::atoll(flow.value().c_str() + pos + 8);
        if (bytes > 50000) blacklist.insert(client);
      });
    }
  });
  sim.RunUntilIdle();

  std::printf("\nfinal graph: %zu hosts, %zu flows\n", graph.num_vertices(),
              graph.num_edges());
  std::printf("true victim: server %llu; suspected victim: %llu (%s)\n",
              static_cast<unsigned long long>(model.victim()),
              static_cast<unsigned long long>(suspected_victim),
              suspected_victim == model.victim() ? "correct" : "WRONG");

  // Score the blacklist against ground truth (botnet-labelled states).
  size_t true_bots = 0;
  size_t blacklisted_bots = 0;
  graph.ForEachVertex([&](VertexId v, const std::string& state) {
    if (state.find("botnet") != std::string::npos) {
      ++true_bots;
      if (blacklist.contains(v)) ++blacklisted_bots;
    }
  });
  size_t false_positives = 0;
  for (VertexId v : blacklist) {
    const auto state = graph.GetVertexState(v);
    if (state.ok() && state.value().find("botnet") == std::string::npos) {
      ++false_positives;
    }
  }
  std::printf("blacklist: %zu hosts; catches %zu/%zu surviving bots, %zu "
              "false positives\n",
              blacklist.size(), blacklisted_bots, true_bots,
              false_positives);
  return 0;
}
