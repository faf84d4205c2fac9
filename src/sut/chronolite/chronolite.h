// ChronoLite: a simulated distributed online graph processing engine — the
// stand-in for Chronograph (Erb et al., DEBS'17) in the paper's Level-2
// experiment (§5.3.2, Fig. 3d, Table 4).
//
// Architecture, mirroring the mechanisms the paper's evaluation surfaces:
//   * a broker stage receives the stream and routes each event to the
//     worker owning the target vertex (hash partitioning),
//   * N workers each own a graph partition and run an online influence-rank
//     computation (residual-push PageRank, algorithms/online_pagerank.h),
//   * crucially, *graph-update messages and computation (residual)
//     messages share each worker's single input queue* — the programming-
//     model property the paper's evaluation identifies: evolution and
//     computation compete for internal communication resources, so bursts
//     leave a backlog that keeps the system busy long after the stream
//     stops, and rank results lag with high error until the backlog drains.
//   * Level 2 instrumentation: queue lengths, per-worker op counters, and
//     rank estimates are exposed via hooks and accessors.
#ifndef GRAPHTIDES_SUT_CHRONOLITE_CHRONOLITE_H_
#define GRAPHTIDES_SUT_CHRONOLITE_CHRONOLITE_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algorithms/online_pagerank.h"
#include "harness/evaluation_level.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/queue.h"
#include "sim/simulator.h"
#include "stream/event.h"
#include "sut/chronolite/delta_combiner.h"

namespace graphtides {

struct ChronoLiteOptions {
  size_t num_workers = 4;
  /// Worker input queue capacity (0 = unbounded, the default: the paper's
  /// run accumulates ~60k-message backlogs).
  size_t worker_queue_capacity = 0;
  /// CPU cost to apply one graph-update message.
  Duration update_cost = Duration::FromMicros(120);
  /// Fixed CPU cost to receive one residual batch message.
  Duration residual_cost = Duration::FromMicros(25);
  /// Additional CPU cost per residual entry in a batch.
  Duration residual_entry_cost = Duration::FromMicros(3);
  /// Outbound residual deltas are coalesced per destination worker and
  /// flushed on this interval (one batch message per destination).
  Duration residual_flush_interval = Duration::FromMicros(500);
  /// CPU cost of one rank push.
  Duration push_cost = Duration::FromMicros(25);
  /// Rank pushes executed after each processed message (compute quantum).
  size_t pushes_per_message = 64;
  /// Pushes per standalone compute task when the queue is empty. Larger
  /// quanta merge more outbound deltas per message (see ChronoWorker).
  size_t pushes_per_idle_task = 512;
  /// Inter-worker link (also broker -> worker).
  SimLinkOptions link;
  OnlinePageRankOptions rank;
  /// CPU accounting bin.
  Duration utilization_bin = Duration::FromSeconds(1.0);
};

/// \brief One worker: graph partition + rank core + input queue.
class ChronoWorker;

/// \brief The engine. All methods must run inside simulator callbacks.
class ChronoLite : public SutMetricsSource {
 public:
  ChronoLite(Simulator* sim, ChronoLiteOptions options);
  ~ChronoLite();

  /// Ingests one stream event (broker entry point). Routing and processing
  /// happen asynchronously in virtual time.
  void Ingest(const Event& event);

  /// True when no queued or in-flight work remains.
  bool Idle() const;

  // --- Observability (Level 1 / Level 2) ---------------------------------

  size_t num_workers() const { return workers_.size(); }
  size_t WorkerQueueLength(size_t i) const;
  /// Messages + pushes executed by worker i since start.
  uint64_t WorkerOpsProcessed(size_t i) const;
  const SimProcess& WorkerProcess(size_t i) const;

  /// Normalized influence rank of a vertex (0 if unknown).
  double RankOf(VertexId v) const;
  /// Top-k (vertex, normalized rank), descending.
  std::vector<std::pair<VertexId, double>> TopRanks(size_t k) const;
  /// All normalized ranks (vertex -> rank).
  std::unordered_map<VertexId, double> AllRanks() const;

  uint64_t events_ingested() const { return events_ingested_; }
  uint64_t updates_applied() const { return updates_applied_; }
  /// Residual batch messages exchanged between workers.
  uint64_t residual_messages() const { return residual_messages_; }
  /// Individual residual deltas carried by those messages.
  uint64_t residual_deltas() const { return residual_deltas_; }

  /// Level-1 metrics: event, update and residual counters (the combine
  /// ratio is residual_deltas / residual_messages), the broker's largest
  /// link backlog in seconds, and per worker i its queue length, the
  /// residual-batch messages among those queued and its ops processed.
  std::vector<std::pair<std::string, double>> CollectMetrics() const override;

  /// Level-2 hook points fired by the engine:
  ///   "queue_length.<i>"  every time worker i's queue length changes,
  ///   "message_processed.<i>" after each message.
  InstrumentationHooks& hooks() { return hooks_; }

 private:
  friend class ChronoWorker;

  /// One entry of a worker's input queue.
  struct Message {
    enum class Kind { kUpdate, kResidualBatch } kind = Kind::kUpdate;
    Event update;                                     // kUpdate
    std::vector<std::pair<VertexId, double>> deltas;  // kResidualBatch
  };

  /// A link plus the messages it carries. A link delivers in send order,
  /// so each delivery event takes the oldest in-flight message.
  struct Channel {
    std::unique_ptr<SimLink> link;
    std::deque<Message> in_flight;
  };

  size_t OwnerOf(VertexId v) const { return v % workers_.size(); }
  void RouteResidual(size_t from_worker, VertexId target, double delta);
  void FlushOutbox(size_t from_worker, size_t to_worker);
  /// Sends `message` from `from` (num_workers = the broker) to worker `to`.
  void Send(size_t from, size_t to, uint64_t bytes, Message message);
  void Deliver(size_t from, size_t to);

  Simulator* sim_;
  ChronoLiteOptions options_;
  std::vector<std::unique_ptr<ChronoWorker>> workers_;
  /// channels_[i][j]: worker i -> worker j (i == num_workers is the
  /// broker).
  std::vector<std::vector<Channel>> channels_;
  InstrumentationHooks hooks_;

  /// Per (sender, destination) coalescing buffers for residual deltas;
  /// a batch carries its targets in first-insertion order.
  struct Outbox {
    DeltaCombiner deltas;
    bool flush_scheduled = false;
  };
  std::vector<std::vector<Outbox>> outboxes_;

  uint64_t events_ingested_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t residual_messages_ = 0;
  uint64_t residual_deltas_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SUT_CHRONOLITE_CHRONOLITE_H_
