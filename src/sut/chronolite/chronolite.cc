#include "sut/chronolite/chronolite.h"

#include <algorithm>

namespace graphtides {

// ---------------------------------------------------------------------------
// ChronoWorker
// ---------------------------------------------------------------------------

/// One worker: owns a vertex partition (out-adjacency of owned vertices),
/// an OnlinePageRankCore over that partition, and a single input queue
/// shared by update and residual messages.
class ChronoWorker {
 public:
  using Message = ChronoLite::Message;

  ChronoWorker(ChronoLite* engine, Simulator* sim, size_t index,
               const ChronoLiteOptions& options)
      : engine_(engine),
        sim_(sim),
        index_(index),
        options_(options),
        process_(sim, "worker-" + std::to_string(index + 1),
                 options.utilization_bin),
        queue_(options.worker_queue_capacity),
        queue_length_point_("queue_length." + std::to_string(index)),
        processed_point_("message_processed." + std::to_string(index)),
        // The partition ChronoLite::OwnerOf routes by.
        rank_(options.rank, options.num_workers, index) {}

  /// Enqueues a message (from the broker or a peer worker) and wakes the
  /// worker if idle.
  void Enqueue(Message message) {
    const bool batch = message.kind == Message::Kind::kResidualBatch;
    if (queue_.Push(std::move(message)) && batch) ++queued_batches_;
    engine_->hooks_.Fire(queue_length_point_,
                         static_cast<double>(queue_.size()));
    Wake();
  }

  /// Per-message processing cost (batches pay per entry).
  Duration CostOf(const Message& message) const {
    if (message.kind == Message::Kind::kUpdate) return options_.update_cost;
    return options_.residual_cost +
           Duration::FromNanos(
               options_.residual_entry_cost.nanos() *
               static_cast<int64_t>(message.deltas.size()));
  }

  /// Schedules the processing loop if it is not already running.
  void Wake() {
    if (running_) return;
    if (queue_.empty() && !rank_.HasPendingWork()) return;
    running_ = true;
    ScheduleNext();
  }

  bool Idle() const {
    return !running_ && queue_.empty() && !rank_.HasPendingWork();
  }

  size_t queue_length() const { return queue_.size(); }
  /// Residual-batch messages among those queued.
  size_t queued_batches() const { return queued_batches_; }
  uint64_t ops_processed() const { return ops_processed_; }
  const SimProcess& process() const { return process_; }
  const OnlinePageRankCore& rank() const { return rank_; }

 private:
  void ScheduleNext() {
    std::optional<Message> message = queue_.Pop();
    if (message.has_value()) {
      if (message->kind == Message::Kind::kResidualBatch) --queued_batches_;
      // One message is in service at a time: the next is popped only once
      // this one completes.
      in_service_ = std::move(*message);
      process_.Submit(CostOf(in_service_), [this] {
        Handle(in_service_);
        ops_processed_ += 1;
        engine_->hooks_.Fire(processed_point_, 1.0);
        RunPushes(options_.pushes_per_message);
        Continue();
      });
      return;
    }
    if (rank_.HasPendingWork()) {
      const size_t quantum = options_.pushes_per_idle_task;
      process_.Submit(
          Duration::FromNanos(options_.push_cost.nanos() *
                              static_cast<int64_t>(quantum)),
          [this, quantum] {
            RunPushes(quantum);
            Continue();
          });
      return;
    }
    running_ = false;
  }

  void Continue() {
    if (queue_.empty() && !rank_.HasPendingWork()) {
      running_ = false;
      return;
    }
    ScheduleNext();
  }

  void RunPushes(size_t quantum) {
    // Remote deltas within one quantum are merged per target vertex — one
    // message per (quantum, target) instead of one per push, the same
    // batching a real engine applies to its outbound channels.
    const size_t executed =
        rank_.ProcessPushes(quantum, [this](VertexId target, double delta) {
          outbound_.Add(target, delta);
        });
    for (const auto& [target, delta] : outbound_.entries()) {
      engine_->RouteResidual(index_, target, delta);
    }
    outbound_.Clear();
    ops_processed_ += executed;
  }

  void Handle(const Message& message) {
    if (message.kind == Message::Kind::kResidualBatch) {
      for (const auto& [target, delta] : message.deltas) {
        // Residuals addressed to vertices this worker no longer owns (e.g.
        // removed users whose remote in-edges are stale) are dropped rather
        // than resurrecting ghost state.
        rank_.AddResidualIfPresent(target, delta);
      }
      return;
    }
    const Event& e = message.update;
    switch (e.type) {
      case EventType::kAddVertex:
        rank_.AddVertex(e.vertex);
        ++engine_->updates_applied_;
        break;
      case EventType::kRemoveVertex:
        // In-neighbors are unknown to this worker (they may live anywhere);
        // their stale contributions are part of the measured error.
        rank_.RemoveVertex(e.vertex, {});
        ++engine_->updates_applied_;
        break;
      case EventType::kAddEdge:
        rank_.AddEdge(e.edge.src, e.edge.dst);
        ++engine_->updates_applied_;
        break;
      case EventType::kRemoveEdge:
        rank_.RemoveEdge(e.edge.src, e.edge.dst);
        ++engine_->updates_applied_;
        break;
      case EventType::kUpdateVertex:
      case EventType::kUpdateEdge:
        // State updates do not affect the rank computation.
        ++engine_->updates_applied_;
        break;
      default:
        break;
    }
  }

  ChronoLite* engine_;
  Simulator* sim_;
  size_t index_;
  const ChronoLiteOptions& options_;
  SimProcess process_;
  SimQueue<Message> queue_;
  size_t queued_batches_ = 0;
  Message in_service_;
  /// Per-quantum combiner of this worker's remote deltas.
  DeltaCombiner outbound_;
  /// Hook point names, built once.
  const std::string queue_length_point_;
  const std::string processed_point_;
  OnlinePageRankCore rank_;
  bool running_ = false;
  uint64_t ops_processed_ = 0;
};

// ---------------------------------------------------------------------------
// ChronoLite
// ---------------------------------------------------------------------------

ChronoLite::ChronoLite(Simulator* sim, ChronoLiteOptions options)
    : sim_(sim), options_(options) {
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<ChronoWorker>(this, sim, i, options_));
  }
  outboxes_.resize(options_.num_workers,
                   std::vector<Outbox>(options_.num_workers));
  // Channels: rows 0..n-1 are workers, row n is the broker.
  channels_.resize(options_.num_workers + 1);
  for (size_t i = 0; i <= options_.num_workers; ++i) {
    channels_[i].resize(options_.num_workers);
    for (size_t j = 0; j < options_.num_workers; ++j) {
      std::string name = (i == options_.num_workers)
                             ? std::string("broker")
                             : std::string("w").append(std::to_string(i));
      name.append("->w").append(std::to_string(j));
      channels_[i][j].link =
          std::make_unique<SimLink>(sim, name, options_.link);
    }
  }
}

ChronoLite::~ChronoLite() = default;

void ChronoLite::Ingest(const Event& event) {
  if (!IsGraphOp(event.type)) return;
  ++events_ingested_;
  const size_t owner = IsVertexOp(event.type) ? OwnerOf(event.vertex)
                                              : OwnerOf(event.edge.src);
  Message message;
  message.kind = Message::Kind::kUpdate;
  message.update = event;
  Send(options_.num_workers, owner, 48 + event.payload.size(),
       std::move(message));
}

void ChronoLite::Send(size_t from, size_t to, uint64_t bytes,
                      Message message) {
  Channel& channel = channels_[from][to];
  channel.in_flight.push_back(std::move(message));
  channel.link->Send(bytes, [this, from, to] { Deliver(from, to); });
}

void ChronoLite::Deliver(size_t from, size_t to) {
  std::deque<Message>& in_flight = channels_[from][to].in_flight;
  Message message = std::move(in_flight.front());
  in_flight.pop_front();
  workers_[to]->Enqueue(std::move(message));
}

void ChronoLite::RouteResidual(size_t from_worker, VertexId target,
                               double delta) {
  ++residual_deltas_;
  const size_t owner = OwnerOf(target);
  Outbox& outbox = outboxes_[from_worker][owner];
  outbox.deltas.Add(target, delta);
  if (!outbox.flush_scheduled) {
    outbox.flush_scheduled = true;
    sim_->ScheduleAfter(options_.residual_flush_interval,
                        [this, from_worker, owner] {
                          FlushOutbox(from_worker, owner);
                        });
  }
}

void ChronoLite::FlushOutbox(size_t from_worker, size_t to_worker) {
  Outbox& outbox = outboxes_[from_worker][to_worker];
  outbox.flush_scheduled = false;
  if (outbox.deltas.empty()) return;
  Message message;
  message.kind = Message::Kind::kResidualBatch;
  message.deltas = outbox.deltas.entries();
  outbox.deltas.Clear();
  ++residual_messages_;
  const uint64_t bytes = 16 + 16 * message.deltas.size();
  Send(from_worker, to_worker, bytes, std::move(message));
}

bool ChronoLite::Idle() const {
  for (const auto& worker : workers_) {
    if (!worker->Idle()) return false;
  }
  for (const auto& row : channels_) {
    for (const Channel& channel : row) {
      if (!channel.in_flight.empty()) return false;
    }
  }
  for (const auto& row : outboxes_) {
    for (const Outbox& outbox : row) {
      if (!outbox.deltas.empty() || outbox.flush_scheduled) return false;
    }
  }
  return true;
}

size_t ChronoLite::WorkerQueueLength(size_t i) const {
  return workers_[i]->queue_length();
}

uint64_t ChronoLite::WorkerOpsProcessed(size_t i) const {
  return workers_[i]->ops_processed();
}

const SimProcess& ChronoLite::WorkerProcess(size_t i) const {
  return workers_[i]->process();
}

double ChronoLite::RankOf(VertexId v) const {
  double mass = 0.0;
  for (const auto& worker : workers_) mass += worker->rank().EstimateMass();
  if (mass <= 0.0) return 0.0;
  return workers_[OwnerOf(v)]->rank().EstimateOf(v) / mass;
}

std::vector<std::pair<VertexId, double>> ChronoLite::TopRanks(size_t k) const {
  double mass = 0.0;
  for (const auto& worker : workers_) mass += worker->rank().EstimateMass();
  std::vector<std::pair<VertexId, double>> all;
  for (const auto& worker : workers_) {
    for (const auto& [v, estimate] : worker->rank().Estimates()) {
      all.emplace_back(v, mass > 0.0 ? estimate / mass : 0.0);
    }
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  all.resize(k);
  return all;
}

std::unordered_map<VertexId, double> ChronoLite::AllRanks() const {
  double mass = 0.0;
  for (const auto& worker : workers_) mass += worker->rank().EstimateMass();
  std::unordered_map<VertexId, double> out;
  if (mass <= 0.0) return out;
  for (const auto& worker : workers_) {
    for (const auto& [v, estimate] : worker->rank().Estimates()) {
      out.emplace(v, estimate / mass);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> ChronoLite::CollectMetrics()
    const {
  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("events_ingested",
                       static_cast<double>(events_ingested_));
  metrics.emplace_back("updates_applied",
                       static_cast<double>(updates_applied_));
  metrics.emplace_back("residual_messages",
                       static_cast<double>(residual_messages_));
  metrics.emplace_back("residual_deltas",
                       static_cast<double>(residual_deltas_));
  Duration broker_backlog = Duration::Zero();
  for (const Channel& channel : channels_.back()) {
    broker_backlog = std::max(broker_backlog, channel.link->Backlog());
  }
  metrics.emplace_back("broker_link_backlog_s", broker_backlog.seconds());
  for (size_t i = 0; i < workers_.size(); ++i) {
    metrics.emplace_back("queue_length." + std::to_string(i),
                         static_cast<double>(workers_[i]->queue_length()));
    metrics.emplace_back("queued_residual_batches." + std::to_string(i),
                         static_cast<double>(workers_[i]->queued_batches()));
    metrics.emplace_back("ops_processed." + std::to_string(i),
                         static_cast<double>(workers_[i]->ops_processed()));
  }
  return metrics;
}

}  // namespace graphtides
