#include "harness/telemetry/streaming_marker_correlator.h"

#include <utility>

namespace graphtides {

StreamingMarkerCorrelator::StreamingMarkerCorrelator(
    StreamingCorrelatorOptions options)
    : options_(options) {
  if (options_.max_pending == 0) options_.max_pending = 1;
}

void StreamingMarkerCorrelator::PopConsumedFrontLocked() {
  while (!fifo_.empty() && !live_.contains(fifo_.front().id)) {
    fifo_.pop_front();
  }
}

void StreamingMarkerCorrelator::EvictLocked(const Pending& p) {
  live_.erase(p.id);
  auto it = by_label_.find(p.label);
  if (it != by_label_.end()) {
    // The evicted entry is this label's oldest live send.
    if (!it->second.empty() && it->second.front() == p.id) {
      it->second.pop_front();
    }
    if (it->second.empty()) by_label_.erase(it);
  }
  ++counts_.unmatched;
  --counts_.pending;
  if (options_.keep_records) unmatched_labels_.push_back(p.label);
}

void StreamingMarkerCorrelator::MarkerSent(std::string_view label,
                                           Timestamp time) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.sent;
  if (counts_.pending >= options_.max_pending) {
    PopConsumedFrontLocked();
    if (!fifo_.empty()) {
      EvictLocked(fifo_.front());
      fifo_.pop_front();
    }
  }
  Pending p;
  p.id = next_id_++;
  p.label = std::string(label);
  p.sent = time;
  by_label_[p.label].push_back(p.id);
  live_.emplace(p.id, time);
  fifo_.push_back(std::move(p));
  ++counts_.pending;
}

bool StreamingMarkerCorrelator::MarkerObserved(std::string_view label,
                                               Timestamp time) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.observed;
  auto it = by_label_.find(std::string(label));
  if (it == by_label_.end() || it->second.empty()) {
    ++counts_.orphan_observations;
    return false;
  }
  const uint64_t id = it->second.front();
  const Timestamp sent = live_.at(id);
  if (sent > time) {
    // Sends are in time order, so every pending send of this label is
    // later than the observation: a stale observation from before the run.
    ++counts_.orphan_observations;
    return false;
  }
  it->second.pop_front();
  if (it->second.empty()) by_label_.erase(it);
  live_.erase(id);
  ++counts_.matched;
  --counts_.pending;
  latency_.Record(time - sent);
  if (options_.keep_records) {
    matched_records_.push_back({std::string(label), sent, time});
  }
  PopConsumedFrontLocked();
  return true;
}

void StreamingMarkerCorrelator::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  while (true) {
    PopConsumedFrontLocked();
    if (fifo_.empty()) break;
    EvictLocked(fifo_.front());
    fifo_.pop_front();
  }
}

CorrelatorCounts StreamingMarkerCorrelator::Counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

LatencyHistogram StreamingMarkerCorrelator::LatencySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latency_;
}

std::vector<MatchedMarker> StreamingMarkerCorrelator::TakeMatched() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(matched_records_, {});
}

std::vector<std::string> StreamingMarkerCorrelator::TakeUnmatchedLabels() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(unmatched_labels_, {});
}

}  // namespace graphtides
