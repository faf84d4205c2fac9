// WeaverClient: the Weaver client role of §5.3.1 — batches stream events
// into transactions (amortizing the timestamper's fixed per-tx cost),
// submits them, and resubmits on backpressure when the admission queue
// refuses. The Figs. 3b/3c experiment flushes the last partial batch at
// the end of the stream; the suite's WeaverConnector flushes it from a
// linger timer instead.
#ifndef GRAPHTIDES_SUT_WEAVERLITE_WEAVER_CLIENT_H_
#define GRAPHTIDES_SUT_WEAVERLITE_WEAVER_CLIENT_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "stream/event.h"
#include "sut/weaverlite/weaverlite.h"

namespace graphtides {

class WeaverClient {
 public:
  /// `store` is borrowed. An `events_per_tx` of 0 batches like 1.
  WeaverClient(WeaverLite* store, size_t events_per_tx)
      : store_(store), events_per_tx_(std::max<size_t>(1, events_per_tx)) {}

  /// Adds one event to the open batch; a full batch becomes a ready
  /// transaction. Submits nothing (see Drain).
  void Add(const Event& event) {
    ++events_offered_;
    batch_.push_back(event);
    if (batch_.size() < events_per_tx_) return;
    ready_.push_back(std::move(batch_));
    batch_.clear();
  }

  /// Makes a pending partial batch a ready transaction, then drains.
  void Flush() {
    if (!batch_.empty()) {
      ready_.push_back(std::move(batch_));
      batch_.clear();
    }
    Drain();
  }

  /// Submits as many ready transactions as the store admits.
  void Drain() {
    while (!ready_.empty()) {
      if (!store_->TrySubmit(ready_.front())) return;  // backpressure
      ready_.pop_front();
    }
  }

  bool Idle() const { return batch_.empty() && ready_.empty(); }
  bool has_partial_batch() const { return !batch_.empty(); }
  uint64_t events_offered() const { return events_offered_; }
  size_t backlog_transactions() const { return ready_.size(); }

 private:
  WeaverLite* store_;
  size_t events_per_tx_;
  std::vector<Event> batch_;
  std::deque<std::vector<Event>> ready_;
  uint64_t events_offered_ = 0;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_SUT_WEAVERLITE_WEAVER_CLIENT_H_
