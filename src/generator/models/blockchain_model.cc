#include "generator/models/blockchain_model.h"

#include <iterator>

#include "generator/graph_builder.h"

namespace graphtides {

Status BlockchainModel::BootstrapGraph(GraphBuilder& builder,
                                       GeneratorContext& ctx) {
  balances_.clear();
  for (size_t i = 0; i < options_.initial_wallets; ++i) {
    GT_ASSIGN_OR_RETURN(
        const VertexId id,
        builder.AddVertex("{\"balance\":" +
                          std::to_string(options_.initial_balance) + "}"));
    balances_[id] = options_.initial_balance;
  }
  (void)ctx;
  return Status::OK();
}

EventType BlockchainModel::NextEventType(GeneratorContext& ctx) {
  const double weights[] = {options_.p_new_wallet, options_.p_transaction,
                            options_.p_balance_snapshot};
  switch (ctx.rng().NextWeighted(weights, std::size(weights))) {
    case 0:
      return EventType::kAddVertex;
    case 1: {
      // Pick the counterparties now so we can tell first-contact
      // transactions (CREATE_EDGE) from repeat ones (UPDATE_EDGE).
      const TopologyIndex& topo = ctx.topology();
      for (int attempt = 0; attempt < 32; ++attempt) {
        const auto src = topo.UniformVertex(ctx.rng());
        const auto dst =
            topo.DegreeBiasedVertex(ctx.rng(), options_.hub_bias);
        if (!src.has_value() || !dst.has_value() || *src == *dst) continue;
        if (balances_[*src] <= 0) continue;  // broke wallets cannot send
        pending_pair_ = EdgeId{*src, *dst};
        return topo.HasEdge(*src, *dst) ? EventType::kUpdateEdge
                                        : EventType::kAddEdge;
      }
      return EventType::kUpdateVertex;  // fall back to a snapshot
    }
    case 2:
    default:
      return EventType::kUpdateVertex;
  }
}

std::optional<VertexId> BlockchainModel::SelectVertex(EventType type,
                                                      GeneratorContext& ctx) {
  if (type == EventType::kAddVertex) return ctx.NextVertexId();
  // Balance snapshots favor active wallets.
  return ctx.topology().DegreeBiasedVertex(ctx.rng(), 1.0);
}

std::optional<EdgeId> BlockchainModel::SelectEdge(EventType type,
                                                  GeneratorContext& ctx) {
  if (pending_pair_.has_value()) {
    const EdgeId pair = *pending_pair_;
    pending_pair_.reset();
    return pair;
  }
  return GeneratorModel::SelectEdge(type, ctx);
}

int64_t BlockchainModel::Transact(VertexId src, VertexId dst, Rng& rng) {
  int64_t& src_balance = balances_[src];
  if (src_balance <= 0) return 0;
  const int64_t cap = std::max<int64_t>(1, src_balance / 10);
  const int64_t amount = rng.NextInt(1, cap);
  src_balance -= amount;
  balances_[dst] += amount;
  return amount;
}

std::string BlockchainModel::InsertVertexState(VertexId id,
                                               GeneratorContext&) {
  balances_[id] = 0;
  return "{\"balance\":0}";
}

std::string BlockchainModel::UpdateVertexState(VertexId id,
                                               GeneratorContext&) {
  return "{\"balance\":" + std::to_string(balances_[id]) + "}";
}

std::string BlockchainModel::InsertEdgeState(EdgeId edge,
                                             GeneratorContext& ctx) {
  const int64_t amount = Transact(edge.src, edge.dst, ctx.rng());
  return "{\"tx\":1,\"amount\":" + std::to_string(amount) +
         ",\"total\":" + std::to_string(amount) + "}";
}

std::string BlockchainModel::UpdateEdgeState(EdgeId edge,
                                             GeneratorContext& ctx) {
  const int64_t amount = Transact(edge.src, edge.dst, ctx.rng());
  return "{\"tx\":1,\"amount\":" + std::to_string(amount) + "}";
}

int64_t BlockchainModel::BalanceOf(VertexId wallet) const {
  auto it = balances_.find(wallet);
  return it == balances_.end() ? 0 : it->second;
}

}  // namespace graphtides
