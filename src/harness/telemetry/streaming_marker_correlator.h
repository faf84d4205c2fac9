// Online marker/watermark correlation (§4.5): matches sent markers with
// their observations while the run is still going, instead of the post-run
// log join. Pending sends live in a bounded FIFO — an observation consumes
// the oldest pending send of its label, sends past the pending budget
// become unmatched — so memory stays constant no matter how long the run
// is, and in-flight latency percentiles are available at any
// instant through the embedded LatencyHistogram.
#ifndef GRAPHTIDES_HARNESS_TELEMETRY_STREAMING_MARKER_CORRELATOR_H_
#define GRAPHTIDES_HARNESS_TELEMETRY_STREAMING_MARKER_CORRELATOR_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "harness/telemetry/latency_histogram.h"

namespace graphtides {

struct StreamingCorrelatorOptions {
  /// Pending-map bound: a send past this budget evicts the oldest pending
  /// send as unmatched first. Keeps a misbehaving SUT from growing the
  /// correlator without bound.
  size_t max_pending = 1 << 16;
  /// Retain per-marker matched/unmatched records for post-hoc reports
  /// (unbounded — only for offline analysis; live telemetry keeps it off
  /// and reads counters + histogram instead).
  bool keep_records = false;
};

/// \brief One correlated marker retained under keep_records.
struct MatchedMarker {
  std::string label;
  Timestamp sent;
  Timestamp observed;
};

/// \brief Live counters; all cumulative since construction.
struct CorrelatorCounts {
  uint64_t sent = 0;
  uint64_t observed = 0;
  uint64_t matched = 0;
  /// Sends evicted past the pending budget or still pending at Finish.
  uint64_t unmatched = 0;
  /// Observations with no pending send at or before their time.
  uint64_t orphan_observations = 0;
  uint64_t pending = 0;
};

/// \brief Thread-safe online sent/observed matcher.
///
/// Matching rule (same as the historic post-run join): an observation at
/// time t matches the oldest pending send of the same label with
/// sent <= t; earlier observations are orphans. Each observation consumes
/// its match, so duplicate sends of one label correlate one-to-one in
/// stream order.
class StreamingMarkerCorrelator {
 public:
  explicit StreamingMarkerCorrelator(StreamingCorrelatorOptions options = {});

  void MarkerSent(std::string_view label, Timestamp time);
  /// True when the observation matched (and consumed) a pending send.
  bool MarkerObserved(std::string_view label, Timestamp time);

  /// End of run: every still-pending send becomes unmatched.
  void Finish();

  CorrelatorCounts Counts() const;
  /// Copy of the matched-latency histogram (mergeable across runs).
  LatencyHistogram LatencySnapshot() const;

  /// Drains retained records (keep_records mode; empty otherwise).
  std::vector<MatchedMarker> TakeMatched();
  std::vector<std::string> TakeUnmatchedLabels();

 private:
  struct Pending {
    uint64_t id = 0;
    std::string label;
    Timestamp sent;
  };

  // All callees below require mu_ held.
  void EvictLocked(const Pending& p);
  void PopConsumedFrontLocked();

  StreamingCorrelatorOptions options_;
  mutable std::mutex mu_;
  /// Pending sends in send order; matched entries are tombstoned via
  /// consumed_ and skipped when they reach the front.
  std::deque<Pending> fifo_;
  /// label -> ids of its live pending sends, oldest first.
  std::unordered_map<std::string, std::deque<uint64_t>> by_label_;
  /// id -> sent time for live pending entries (consumed ids are absent).
  std::unordered_map<uint64_t, Timestamp> live_;
  uint64_t next_id_ = 0;
  CorrelatorCounts counts_;
  LatencyHistogram latency_;
  std::vector<MatchedMarker> matched_records_;
  std::vector<std::string> unmatched_labels_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_HARNESS_TELEMETRY_STREAMING_MARKER_CORRELATOR_H_
