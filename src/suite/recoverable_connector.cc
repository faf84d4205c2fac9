#include "suite/recoverable_connector.h"

#include <algorithm>

namespace graphtides {

RecoverableConnector::RecoverableConnector(Simulator* sim,
                                           ConnectorFactory factory,
                                           RecoverableOptions options)
    : sim_(sim),
      factory_(std::move(factory)),
      options_(options),
      inner_(factory_(sim)) {}

std::string RecoverableConnector::Name() const {
  return "recoverable-" + (inner_ ? inner_->Name() : std::string("down"));
}

void RecoverableConnector::Ingest(const Event& event) {
  if (crashed_) {
    if (options_.journal_during_downtime) {
      journal_.push_back(event);
    } else {
      ++lost_events_;
    }
    return;
  }
  journal_.push_back(event);
  inner_->Ingest(event);
}

uint64_t RecoverableConnector::EventsApplied() const {
  // Monotone across restarts: during a rebuild the fresh instance's
  // counter climbs from zero back through the journal; watermark
  // correlation must never observe it going backwards.
  if (inner_) {
    reported_applied_ = std::max(reported_applied_, inner_->EventsApplied());
  }
  return reported_applied_;
}

uint64_t RecoverableConnector::inner_applied() const {
  return inner_ ? inner_->EventsApplied() : 0;
}

bool RecoverableConnector::Idle() const {
  return !crashed_ && inner_ != nullptr && inner_->Idle();
}

std::unordered_map<VertexId, double> RecoverableConnector::CurrentRanks()
    const {
  // A crashed system has no queryable result.
  if (crashed_ || inner_ == nullptr) return {};
  return inner_->CurrentRanks();
}

Duration RecoverableConnector::ResultAge() const {
  if (crashed_) return sim_->Now() - crashed_at_;
  return inner_ ? inner_->ResultAge() : Duration::Zero();
}

void RecoverableConnector::Crash() {
  if (crashed_) return;
  reported_applied_ = EventsApplied();
  crashed_ = true;
  crashed_at_ = sim_->Now();
  ++crashes_;
  graveyard_.push_back(std::move(inner_));
  inner_ = nullptr;
}

void RecoverableConnector::Recover() {
  if (!crashed_) return;
  crashed_ = false;
  inner_ = factory_(sim_);
  last_recovery_journal_ = journal_.size();
  last_recovered_at_ = sim_->Now();
  // Replay the durable input log. Ingest is non-blocking (it enqueues sim
  // work), so the rebuild's CPU cost unfolds over virtual time on the new
  // instance's processes — that queue-drain time IS the recovery latency.
  for (const Event& e : journal_) inner_->Ingest(e);
}

}  // namespace graphtides
