#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_lib.h"
#include "common/json.h"

namespace graphtides::e2e {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGenerator:
      return "generator";
    case Layer::kStream:
      return "stream";
    case Layer::kReplayer:
      return "replayer";
    case Layer::kGraph:
      return "graph";
    case Layer::kAlgorithms:
      return "algorithms";
    case Layer::kTelemetry:
      return "harness.telemetry";
    case Layer::kSuite:
      return "suite";
    case Layer::kBench:
      return "bench";
  }
  return "?";
}

std::string_view PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup:
      return "setup";
    case Phase::kWarmup:
      return "warm-up";
    case Phase::kMeasure:
      return "measure";
    case Phase::kIsolated:
      return "isolated";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void TraceTrack::Begin(Layer layer, std::string name) {
  stack_.push_back({layer, std::move(name), NowNs(), 0});
}

void TraceTrack::End() {
  if (stack_.empty()) return;
  const int64_t end = NowNs();
  Open open = std::move(stack_.back());
  stack_.pop_back();
  const int64_t duration = end - open.start_ns;
  Account(open.layer, duration - open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  Store(open.layer, open.name, open.start_ns, end);
}

void TraceTrack::Leaf(Layer layer, std::string_view name, int64_t start_ns,
                      int64_t end_ns, bool keep) {
  const int64_t duration = end_ns - start_ns;
  Account(layer, duration);
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (keep) Store(layer, name, start_ns, end_ns);
}

void TraceTrack::Account(Layer layer, int64_t self_ns) {
  self_ns_[static_cast<size_t>(tracer_->phase())][static_cast<size_t>(layer)] +=
      self_ns;
}

void TraceTrack::Store(Layer layer, std::string_view name, int64_t start_ns,
                       int64_t end_ns) {
  if (spans_.size() >= Tracer::kMaxSpansPerTrack) {
    ++dropped_spans_;
    return;
  }
  spans_.push_back({layer, std::string(name), start_ns, end_ns});
}

Tracer::Tracer() : origin_ns_(NowNs()) {
  phase_start_ns_[static_cast<size_t>(Phase::kSetup)] = origin_ns_;
}

TraceTrack* Tracer::Track(const std::string& name, bool reconcile) {
  for (const auto& track : tracks_) {
    if (track->name() == name) return track.get();
  }
  tracks_.push_back(
      std::unique_ptr<TraceTrack>(new TraceTrack(this, name, reconcile)));
  return tracks_.back().get();
}

void Tracer::EnterPhase(Phase phase) {
  const int64_t now = NowNs();
  if (phase_open_) phase_end_ns_[static_cast<size_t>(this->phase())] = now;
  phase_start_ns_[static_cast<size_t>(phase)] = now;
  phase_end_ns_[static_cast<size_t>(phase)] = now;
  phase_.store(phase, std::memory_order_release);
  phase_open_ = true;
}

void Tracer::Finish() {
  if (!phase_open_) return;
  phase_end_ns_[static_cast<size_t>(phase())] = NowNs();
  phase_open_ = false;
}

int64_t Tracer::PhaseWallNs(Phase phase) const {
  const size_t p = static_cast<size_t>(phase);
  return phase_end_ns_[p] - phase_start_ns_[p];
}

int64_t Tracer::UnattributedNs(const TraceTrack& track, Phase phase) const {
  int64_t covered = 0;
  for (const int64_t ns : track.self_ns_[static_cast<size_t>(phase)]) {
    covered += ns;
  }
  return PhaseWallNs(phase) - covered;
}

double Tracer::MainUnattributedShare() const {
  const int64_t wall = PhaseWallNs(Phase::kMeasure);
  if (tracks_.empty() || wall <= 0) return 0.0;
  const int64_t rest = UnattributedNs(*tracks_.front(), Phase::kMeasure);
  return static_cast<double>(rest) / static_cast<double>(wall);
}

std::string Tracer::ReconciliationTable(Phase phase) const {
  const size_t p = static_cast<size_t>(phase);
  const int64_t wall = PhaseWallNs(phase);
  // Only layers that some thread spent time in get a column.
  std::vector<size_t> layers;
  for (size_t l = 0; l < kLayerCount; ++l) {
    for (const auto& track : tracks_) {
      if (track->reconcile_ && track->self_ns_[p][l] != 0) {
        layers.push_back(l);
        break;
      }
    }
  }
  char buf[64];
  std::string out = "reconciliation, " + std::string(PhaseName(phase)) +
                    " phase, wall ";
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(wall) / 1e6);
  out += buf;
  out += " (per thread: layer self time [ms] + unattributed = wall)\n";
  std::snprintf(buf, sizeof(buf), "%-10s", "thread");
  out += buf;
  for (const size_t l : layers) {
    std::snprintf(buf, sizeof(buf), " %18s",
                  std::string(LayerName(static_cast<Layer>(l))).c_str());
    out += buf;
  }
  out += "       unattributed   share      wall\n";
  for (const auto& track : tracks_) {
    // The main thread always has a row; other threads only in phases
    // they took part in.
    if (!track->reconcile_ ||
        (track != tracks_.front() && UnattributedNs(*track, phase) == wall)) {
      continue;
    }
    std::snprintf(buf, sizeof(buf), "%-10s", track->name().c_str());
    out += buf;
    int64_t sum = 0;
    for (const size_t l : layers) {
      sum += track->self_ns_[p][l];
      std::snprintf(buf, sizeof(buf), " %18.3f",
                    static_cast<double>(track->self_ns_[p][l]) / 1e6);
      out += buf;
    }
    const int64_t rest = UnattributedNs(*track, phase);
    std::snprintf(buf, sizeof(buf), " %18.3f  %5.1f%% %9.3f\n",
                  static_cast<double>(rest) / 1e6,
                  wall > 0 ? 100.0 * static_cast<double>(rest) /
                                 static_cast<double>(wall)
                           : 0.0,
                  static_cast<double>(sum + rest) / 1e6);
    out += buf;
  }
  return out;
}

std::string Tracer::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  auto begin_event = [&] {
    out.append(first ? "\n" : ",\n");
    first = false;
  };
  for (size_t t = 0; t < tracks_.size(); ++t) {
    const TraceTrack& track = *tracks_[t];
    const uint64_t tid = t + 1;
    begin_event();
    out.append("{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": ");
    JsonAppendNumber(&out, tid);
    out.append(", \"args\": {\"name\": ");
    JsonAppendString(&out, track.name());
    out.append("}}");
    for (const TraceTrack::Span& span : track.spans_) {
      begin_event();
      out.append("{\"name\": ");
      JsonAppendString(&out, span.name);
      out.append(", \"cat\": ");
      JsonAppendString(&out, LayerName(span.layer));
      out.append(", \"ph\": \"X\", \"pid\": 1, \"tid\": ");
      JsonAppendNumber(&out, tid);
      out.append(", \"ts\": ");
      JsonAppendNumber(&out,
                       static_cast<double>(span.start_ns - origin_ns_) / 1e3);
      out.append(", \"dur\": ");
      JsonAppendNumber(&out,
                       static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      out.append("}");
    }
  }
  out.append("\n], \"otherData\": {\"dropped_spans\": {");
  for (size_t t = 0; t < tracks_.size(); ++t) {
    if (t > 0) out.append(", ");
    JsonAppendString(&out, tracks_[t]->name());
    out.append(": ");
    JsonAppendNumber(&out, tracks_[t]->dropped_spans_);
  }
  out.append("}}}\n");
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return Status::IoError("cannot create " + path);
  out << ChromeTraceJson();
  out.close();
  if (!out.good()) return Status::IoError("cannot write " + path);
  return Status::OK();
}

}  // namespace graphtides::e2e
