// WeaverLite suite adapter: wraps the simulated transactional store (§5.3.1
// Level-0 SUT) in the SuiteConnector contract so the suite — and the
// capacity search driving it — can run the same workloads against a
// store-architecture SUT as against the analytics engines.
//
// The adapter is the experiment's WeaverClient (batching into
// transactions, resubmission on backpressure) plus a short linger timer
// that flushes trailing partial batches, so the connector drains at end of
// stream (the suite has no explicit end-of-stream hook).
#ifndef GRAPHTIDES_SUITE_CONNECTORS_WEAVER_CONNECTOR_H_
#define GRAPHTIDES_SUITE_CONNECTORS_WEAVER_CONNECTOR_H_

#include <cstdint>
#include <memory>

#include "suite/connector.h"
#include "sut/weaverlite/weaver_client.h"
#include "sut/weaverlite/weaverlite.h"

namespace graphtides {

struct WeaverConnectorOptions {
  WeaverLiteOptions store;
  /// Stream events batched per transaction ("10 evts/tx" in the paper).
  size_t events_per_tx = 10;
  /// A partial batch older than this is submitted as-is; bounds the tail
  /// latency contribution of batching at low rates and flushes the last
  /// events of the stream.
  Duration batch_linger = Duration::FromMillis(50);
};

/// \brief weaverlite-backed connector: transactional store ingestion.
class WeaverConnector final : public SuiteConnector {
 public:
  WeaverConnector(Simulator* sim, WeaverConnectorOptions options);

  std::string Name() const override { return "store-weaverlite"; }
  void Ingest(const Event& event) override;
  /// Applied plus validation-rejected operations: a rejected op's effect
  /// (nothing) is fully visible, so it must not stall watermarks.
  uint64_t EventsApplied() const override {
    return store_->events_applied() + store_->ops_rejected();
  }
  bool Idle() const override;
  /// Degree-proportional influence proxy over the stored partitions. The
  /// store serves topology queries from its current state, so the result
  /// is always fresh; it is a proxy, not PageRank — capacity runs do not
  /// score accuracy.
  std::unordered_map<VertexId, double> CurrentRanks() const override;
  Duration ResultAge() const override { return Duration::Zero(); }

  const WeaverLite& store() const { return *store_; }

 private:
  void ArmLinger();

  Simulator* sim_;
  WeaverConnectorOptions options_;
  std::unique_ptr<WeaverLite> store_;
  WeaverClient client_;
  uint64_t linger_generation_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SUITE_CONNECTORS_WEAVER_CONNECTOR_H_
