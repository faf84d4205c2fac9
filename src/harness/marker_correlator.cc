#include "harness/marker_correlator.h"

#include <algorithm>

#include "harness/telemetry/streaming_marker_correlator.h"

namespace graphtides {

MarkerCorrelationReport CorrelateMarkers(const ResultLog& log,
                                         const std::string& sent_metric,
                                         const std::string& observed_metric) {
  // Thin wrapper over the streaming correlator: replay the log's marker
  // records through it in time order (sends before observations at equal
  // times, matching the historic join's inclusive rule). keep_records with
  // no timeout/budget reproduces the full post-hoc report; unlike the old
  // all-pairs join, each observation is consumed by its match, so duplicate
  // sends of one label correlate one-to-one in stream order.
  struct Entry {
    Timestamp time;
    bool observed = false;
    const std::string* label = nullptr;
  };
  std::vector<Entry> entries;
  for (const LogRecord& r : log.records()) {
    if (r.metric == sent_metric) {
      entries.push_back({r.time, false, &r.text});
    } else if (r.metric == observed_metric) {
      entries.push_back({r.time, true, &r.text});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return !a.observed && b.observed;
                   });

  StreamingCorrelatorOptions options;
  options.max_pending = entries.size() + 1;
  options.keep_records = true;
  StreamingMarkerCorrelator correlator(options);
  for (const Entry& e : entries) {
    if (e.observed) {
      correlator.MarkerObserved(*e.label, e.time);
    } else {
      correlator.MarkerSent(*e.label, e.time);
    }
  }
  correlator.Finish();

  MarkerCorrelationReport report;
  for (MatchedMarker& m : correlator.TakeMatched()) {
    report.matched.push_back({std::move(m.label), m.sent, m.observed});
  }
  report.unmatched = correlator.TakeUnmatchedLabels();
  report.latency = correlator.LatencySnapshot();
  return report;
}

std::vector<double> MarkerCorrelationReport::LatenciesSeconds() const {
  std::vector<double> out;
  out.reserve(matched.size());
  for (const MarkerLatency& m : matched) {
    out.push_back(m.latency().seconds());
  }
  return out;
}

}  // namespace graphtides
