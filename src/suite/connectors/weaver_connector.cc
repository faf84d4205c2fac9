#include "suite/connectors/weaver_connector.h"

#include <utility>

namespace graphtides {

WeaverConnector::WeaverConnector(Simulator* sim,
                                 WeaverConnectorOptions options)
    : sim_(sim),
      options_(std::move(options)),
      store_(std::make_unique<WeaverLite>(sim_, options_.store)),
      client_(store_.get(), options_.events_per_tx) {
  store_->SetOnTransactionDone([this] { client_.Drain(); });
}

void WeaverConnector::Ingest(const Event& event) {
  client_.Add(event);
  if (client_.has_partial_batch()) ArmLinger();
  client_.Drain();
}

void WeaverConnector::ArmLinger() {
  const uint64_t generation = ++linger_generation_;
  sim_->ScheduleAfter(options_.batch_linger, [this, generation] {
    // A newer event re-armed the timer (or the batch already shipped).
    if (generation == linger_generation_ && client_.has_partial_batch()) {
      client_.Flush();
    }
  });
}

bool WeaverConnector::Idle() const {
  return client_.Idle() && EventsApplied() >= client_.events_offered();
}

std::unordered_map<VertexId, double> WeaverConnector::CurrentRanks() const {
  std::unordered_map<VertexId, double> ranks;
  double total = 0.0;
  for (size_t i = 0; i < store_->num_shards(); ++i) {
    const Graph& partition = store_->shard_graph(i);
    partition.ForEachVertex([&](VertexId id, const std::string&) {
      const double weight =
          1.0 + static_cast<double>(partition.Degree(id).ValueOr(0));
      ranks[id] += weight;
      total += weight;
    });
  }
  if (total > 0.0) {
    for (auto& [id, weight] : ranks) weight /= total;
  }
  return ranks;
}

}  // namespace graphtides
