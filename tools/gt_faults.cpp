// gt_faults — rewrites a graph stream file with injected delivery faults
// (§3.2: the replayer always delivers exactly-once and in order; weaker
// semantics are modeled by degrading the input a priori).
//
// Usage:
//   gt_faults --in clean.gts --out faulty.gts --drop 0.01 --reorder 0.05
//
// Flags:
//   --in FILE, --out FILE   required
//   --drop P                per-event drop probability       (default 0)
//   --dup P                 per-event duplicate probability  (default 0)
//   --reorder P             per-event displacement probability (default 0)
//   --window N              max forward displacement         (default 8)
//   --seed S                fault RNG seed                   (default 1)
//   --include-non-graph     also degrade markers/controls
//   --shuffle-begin N       uniformly shuffle events [N, M) after the other
//   --shuffle-end M         faults ("shuffling partial streams", §3.2)
//   --report FILE           write fault counters as harness log records (CSV)
#include <cstdio>

#include "common/flags.h"
#include "faults/fault_injector.h"
#include "harness/log_record.h"
#include "stream/stream_file.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_faults: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in;
  std::string out;
  std::string report_file;
  FaultOptions options;
  bool include_non_graph = false;
  int64_t shuffle_begin = 0;
  int64_t shuffle_end = 0;
  FlagTable flags("gt_faults");
  flags.Add("in", &in);
  flags.Add("out", &out);
  flags.Add("drop", &options.drop_probability);
  flags.Add("dup", &options.duplicate_probability);
  flags.Add("reorder", &options.reorder_probability);
  flags.Add("window", &options.reorder_window);
  flags.Add("seed", &options.seed);
  flags.Add("include-non-graph", &include_non_graph);
  flags.Add("shuffle-begin", &shuffle_begin);
  flags.Add("shuffle-end", &shuffle_end);
  flags.Add("report", &report_file);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (in.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("--in and --out are required"));
  }
  options.protect_non_graph_events = !include_non_graph;
  auto events = ReadStreamFile(in);
  if (!events.ok()) return Fail(events.status());

  FaultReport report;
  std::vector<Event> faulty = InjectFaults(*events, options, &report);

  // Optional partial-stream shuffle, applied after the per-event faults so
  // the window indices refer to the stream that will actually be written.
  size_t shuffled = 0;
  if (flags.Given("shuffle-begin") || flags.Given("shuffle-end")) {
    if (shuffle_begin < 0 || shuffle_end < shuffle_begin) {
      return Fail(Status::InvalidArgument(
          "--shuffle-begin/--shuffle-end must satisfy 0 <= N <= M"));
    }
    // Distinct stream from the per-event fault draws so adding a shuffle
    // does not change which events get dropped/duplicated.
    Rng rng(options.seed ^ 0x5A0FFULL);
    const size_t begin = static_cast<size_t>(shuffle_begin);
    const size_t end = static_cast<size_t>(shuffle_end);
    faulty = ShuffleWindow(std::move(faulty), begin, end, rng);
    shuffled = std::min(end, faulty.size()) -
               std::min(begin, faulty.size());
  }

  if (Status st = WriteStreamFile(out, faulty); !st.ok()) return Fail(st);
  std::fprintf(stderr, "gt_faults: %s shuffled=%zu -> %s\n",
               report.ToString().c_str(), shuffled, out.c_str());

  if (!report_file.empty()) {
    std::FILE* f = std::fopen(report_file.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IoError("cannot create " + report_file));
    }
    WallClock wall;
    const Timestamp now = wall.Now();
    const std::vector<std::pair<std::string, double>> metrics = {
        {"fault_input_events", static_cast<double>(report.input_events)},
        {"fault_output_events", static_cast<double>(report.output_events)},
        {"fault_dropped", static_cast<double>(report.dropped)},
        {"fault_duplicated", static_cast<double>(report.duplicated)},
        {"fault_displaced", static_cast<double>(report.displaced)},
        {"fault_shuffled", static_cast<double>(shuffled)},
    };
    for (const auto& [metric, value] : metrics) {
      LogRecord record{now, "faults", metric, value, out};
      std::fprintf(f, "%s\n", record.ToCsvLine().c_str());
    }
    std::fclose(f);
  }
  return 0;
}
