#include "generator/models/social_network_model.h"

#include <iterator>

namespace graphtides {

Status SocialNetworkModel::BootstrapGraph(GraphBuilder& builder,
                                          GeneratorContext& ctx) {
  BarabasiAlbertParams params;
  params.n = options_.seed_users;
  params.m0 = std::min<size_t>(10, std::max<size_t>(2, options_.seed_users / 10));
  params.m = options_.seed_follows_per_user;
  return BootstrapBarabasiAlbert(builder, ctx, params);
}

EventType SocialNetworkModel::NextEventType(GeneratorContext& ctx) {
  const double weights[] = {options_.p_new_user, options_.p_follow,
                            options_.p_profile_update, options_.p_unfollow,
                            options_.p_user_leaves};
  switch (ctx.rng().NextWeighted(weights, std::size(weights))) {
    case 0:
      return EventType::kAddVertex;
    case 1:
      return EventType::kAddEdge;
    case 2:
      return EventType::kUpdateVertex;
    case 3:
      return EventType::kRemoveEdge;
    case 4:
      return EventType::kRemoveVertex;
    default:
      return EventType::kAddEdge;
  }
}

std::optional<VertexId> SocialNetworkModel::SelectVertex(
    EventType type, GeneratorContext& ctx) {
  switch (type) {
    case EventType::kAddVertex:
      return ctx.NextVertexId();
    case EventType::kRemoveVertex:
      // Departures hit weakly connected users far more often.
      return ctx.topology().DegreeBiasedVertex(ctx.rng(),
                                               options_.departure_bias);
    case EventType::kUpdateVertex:
      return ctx.topology().UniformVertex(ctx.rng());
    default:
      return GeneratorModel::SelectVertex(type, ctx);
  }
}

std::optional<EdgeId> SocialNetworkModel::SelectEdge(EventType type,
                                                     GeneratorContext& ctx) {
  const TopologyIndex& topo = ctx.topology();
  if (type == EventType::kAddEdge) {
    // A uniformly chosen user follows an influencer-biased target.
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto follower = topo.UniformVertex(ctx.rng());
      if (!follower.has_value()) return std::nullopt;
      const auto target =
          topo.DegreeBiasedVertex(ctx.rng(), options_.influencer_bias);
      if (!target.has_value()) return std::nullopt;
      if (*follower != *target && !topo.HasEdge(*follower, *target)) {
        return EdgeId{*follower, *target};
      }
    }
    return std::nullopt;
  }
  return topo.UniformEdge(ctx.rng());
}

std::string SocialNetworkModel::InsertVertexState(VertexId id,
                                                  GeneratorContext& ctx) {
  return "{\"user\":\"u" + std::to_string(id) +
         "\",\"joined\":" + std::to_string(ctx.round()) + "}";
}

std::string SocialNetworkModel::UpdateVertexState(VertexId id,
                                                  GeneratorContext& ctx) {
  return "{\"user\":\"u" + std::to_string(id) +
         "\",\"bio_rev\":" + std::to_string(ctx.round()) + "}";
}

std::string SocialNetworkModel::InsertEdgeState(EdgeId,
                                                GeneratorContext& ctx) {
  return "{\"since\":" + std::to_string(ctx.round()) + "}";
}

bool SocialNetworkModel::AllowRemoveVertex(VertexId, GeneratorContext& ctx) {
  return ctx.topology().num_vertices() > options_.min_users;
}

}  // namespace graphtides
