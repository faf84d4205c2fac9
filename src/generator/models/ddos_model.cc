#include "generator/models/ddos_model.h"

#include <iterator>

#include "generator/graph_builder.h"

namespace graphtides {

Status DdosModel::BootstrapGraph(GraphBuilder& builder,
                                 GeneratorContext& ctx) {
  servers_.clear();
  for (size_t i = 0; i < options_.num_servers; ++i) {
    GT_ASSIGN_OR_RETURN(const VertexId id,
                        builder.AddVertex("{\"kind\":\"server\"}"));
    servers_.push_back(id);
  }
  for (size_t i = 0; i < options_.initial_clients; ++i) {
    GT_ASSIGN_OR_RETURN(const VertexId id,
                        builder.AddVertex("{\"kind\":\"client\"}"));
    // Every initial client opens one flow to a random server.
    const VertexId server = servers_[ctx.rng().NextBounded(servers_.size())];
    GT_RETURN_NOT_OK(builder.AddEdge(id, server, "{\"bytes\":0,\"pkts\":0}"));
  }
  return Status::OK();
}

bool DdosModel::InAttack(uint64_t round) const {
  for (const DdosAttackWindow& w : options_.attacks) {
    if (round >= w.start_round && round < w.end_round) return true;
  }
  return false;
}

bool DdosModel::AttackEvent(GeneratorContext& ctx) const {
  return InAttack(ctx.round()) && ctx.rng().NextBool(options_.attack_intensity);
}

EventType DdosModel::NextEventType(GeneratorContext& ctx) {
  if (AttackEvent(ctx)) {
    // Attack traffic: mostly edge updates on existing bot flows, plus a
    // steady influx of fresh bots and new flows toward the victim.
    const double x = ctx.rng().NextDouble();
    if (x < 0.20) return EventType::kAddVertex;   // new bot
    if (x < 0.45) return EventType::kAddEdge;     // bot -> victim flow
    return EventType::kUpdateEdge;                // flood packets
  }
  const double weights[] = {options_.p_new_client, options_.p_client_leaves,
                            options_.p_new_flow, options_.p_flow_update,
                            options_.p_flow_closes};
  switch (ctx.rng().NextWeighted(weights, std::size(weights))) {
    case 0:
      return EventType::kAddVertex;
    case 1:
      return EventType::kRemoveVertex;
    case 2:
      return EventType::kAddEdge;
    case 3:
      return EventType::kUpdateEdge;
    case 4:
      return EventType::kRemoveEdge;
    default:
      return EventType::kUpdateEdge;
  }
}

std::optional<VertexId> DdosModel::SelectVertex(EventType type,
                                                GeneratorContext& ctx) {
  switch (type) {
    case EventType::kAddVertex:
      return ctx.NextVertexId();
    case EventType::kRemoveVertex: {
      // Only clients leave; servers are fixed infrastructure.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const auto v = ctx.topology().UniformVertex(ctx.rng());
        if (!v.has_value()) return std::nullopt;
        bool is_server = false;
        for (VertexId s : servers_) {
          if (s == *v) {
            is_server = true;
            break;
          }
        }
        if (!is_server) return v;
      }
      return std::nullopt;
    }
    default:
      return GeneratorModel::SelectVertex(type, ctx);
  }
}

std::optional<EdgeId> DdosModel::SelectEdge(EventType type,
                                            GeneratorContext& ctx) {
  const TopologyIndex& topo = ctx.topology();
  const bool attack = AttackEvent(ctx);
  if (type == EventType::kAddEdge) {
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto client = topo.UniformVertex(ctx.rng());
      if (!client.has_value()) return std::nullopt;
      const VertexId server =
          attack ? victim() : servers_[ctx.rng().NextBounded(servers_.size())];
      if (*client != server && !topo.HasEdge(*client, server)) {
        return EdgeId{*client, server};
      }
    }
    return std::nullopt;
  }
  if (type == EventType::kUpdateEdge && attack) {
    // Hammer a botnet flow into the victim; flood traffic originates from
    // the bots, not from coincidental benign clients of the same server.
    std::optional<EdgeId> into_victim;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto e = topo.UniformEdge(ctx.rng());
      if (!e.has_value()) return std::nullopt;
      if (e->dst != victim()) continue;
      if (bots_.contains(e->src)) return e;
      if (!into_victim.has_value()) into_victim = e;
    }
    if (into_victim.has_value()) return into_victim;
  }
  return topo.UniformEdge(ctx.rng());
}

std::string DdosModel::InsertVertexState(VertexId id, GeneratorContext& ctx) {
  if (InAttack(ctx.round())) {
    bots_.insert(id);
    return "{\"kind\":\"client\",\"origin\":\"botnet\"}";
  }
  return "{\"kind\":\"client\"}";
}

std::string DdosModel::InsertEdgeState(EdgeId, GeneratorContext&) {
  return "{\"bytes\":0,\"pkts\":0}";
}

std::string DdosModel::UpdateEdgeState(EdgeId, GeneratorContext& ctx) {
  const int64_t bytes = InAttack(ctx.round())
                            ? ctx.rng().NextInt(60000, 150000)
                            : ctx.rng().NextInt(100, 5000);
  return "{\"bytes\":" + std::to_string(bytes) +
         ",\"pkts\":" + std::to_string(bytes / 1000 + 1) + "}";
}

bool DdosModel::AllowRemoveVertex(VertexId, GeneratorContext& ctx) {
  return ctx.topology().num_vertices() >
         options_.num_servers + options_.min_clients;
}

}  // namespace graphtides
