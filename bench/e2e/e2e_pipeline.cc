// End-to-end benchmark of the paper's Fig. 2 path: generate -> stream file
// -> replay -> system under test -> marker visibility, with five workloads
// that stress different layers (README.md says which and why).
//
//   e2e_pipeline --workload NAME [--seed S] [--seconds T] [--work-dir DIR]
//                [--json OUT] [--trace TRACE.json]
//       Runs one workload: builds its inputs from the seed, measures for
//       T seconds, checks the outputs, prints every end-to-end metric with
//       its unit and, as the last line, the result object
//       {"correct", "attempted", "failed", "metrics"}. --json writes the
//       full record (host fingerprint included). --trace reruns the
//       workload with the layer timings on: it prints the per-thread
//       reconciliation and the tracing overhead, writes Chrome trace-event
//       JSON to TRACE.json, and reports the per-layer metrics instead.
//       Exit 0 when every check passed, 1 when one failed, 2 on usage or
//       set-up errors (no result line).
//
//   e2e_pipeline --smoke [--work-dir DIR] [--benchmark-json PATH]
//       Every workload at ~1% size, untraced and traced, with every check
//       on; validates the records, the result line, the trace file and,
//       given PATH, that BENCHMARK.json names exactly these metrics.
//
//   e2e_pipeline --compare A.json[,B.json...] --with C.json[,...]
//                [--benchmark-json PATH]
//       Compares two run sets per workload with the bounds in
//       BENCHMARK.json; exit 1 on a regression, 2 when the records cannot
//       be compared (different host fingerprints).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "common/flags.h"
#include "common/json.h"
#include "trace.h"
#include "workloads.h"

using namespace graphtides;
using namespace graphtides::e2e;

namespace {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IoError("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::stringstream in(list);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

/// The parts of BENCHMARK.json this binary checks itself against.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricDef> end_to_end;
  std::vector<MetricSpec> bounds;
  std::vector<MetricDef> per_layer;
};

Result<std::vector<MetricDef>> ReadMetricList(const JsonValue& root,
                                              const std::string& key,
                                              std::vector<MetricSpec>* bounds) {
  auto it = root.object.find(key);
  if (it == root.object.end() || it->second.kind != JsonValue::Kind::kArray) {
    return Status::ParseError("BENCHMARK.json: missing list \"" + key + "\"");
  }
  std::vector<MetricDef> defs;
  for (const JsonValue& m : it->second.array) {
    MetricDef def;
    GT_ASSIGN_OR_RETURN(def.name, JsonRequireString(m, "name"));
    GT_ASSIGN_OR_RETURN(def.unit, JsonRequireString(m, "unit"));
    GT_ASSIGN_OR_RETURN(const std::string better,
                        JsonRequireString(m, "better"));
    if (better != "lower" && better != "higher") {
      return Status::ParseError("BENCHMARK.json: metric " + def.name +
                                " has better = \"" + better + "\"");
    }
    if (bounds != nullptr) {
      MetricSpec spec;
      spec.name = def.name;
      spec.lower_is_better = better == "lower";
      GT_ASSIGN_OR_RETURN(spec.bound, JsonRequireNumber(m, "bound"));
      bounds->push_back(spec);
    }
    defs.push_back(def);
  }
  return defs;
}

Result<BenchmarkSpec> LoadBenchmarkJson(const std::string& path) {
  GT_ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
  GT_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(text));
  BenchmarkSpec spec;
  auto it = root.object.find("workloads");
  if (it == root.object.end() || it->second.kind != JsonValue::Kind::kArray) {
    return Status::ParseError("BENCHMARK.json: missing list \"workloads\"");
  }
  for (const JsonValue& w : it->second.array) {
    GT_ASSIGN_OR_RETURN(std::string name, JsonRequireString(w, "name"));
    spec.workloads.push_back(std::move(name));
  }
  GT_ASSIGN_OR_RETURN(spec.end_to_end,
                      ReadMetricList(root, "end_to_end", &spec.bounds));
  GT_ASSIGN_OR_RETURN(spec.per_layer,
                      ReadMetricList(root, "per_layer", nullptr));
  return spec;
}

void PrintMetrics(const char* title, const MetricMap& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-38s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

/// Tracing overhead: each end-to-end metric traced minus untraced.
void PrintOverhead(const MetricMap& untraced, const MetricMap& traced) {
  std::printf("tracing overhead (traced - untraced):\n");
  std::printf("  %-14s %16s %16s %16s %9s\n", "metric", "untraced", "traced",
              "delta", "delta %");
  for (const auto& [name, base] : untraced) {
    auto it = traced.find(name);
    if (it == traced.end()) continue;
    const double delta = it->second.value - base.value;
    std::printf("  %-14s %16.6g %16.6g %16.6g %8.2f%%  [%s]\n", name.c_str(),
                base.value, it->second.value, delta,
                base.value != 0.0 ? 100.0 * delta / base.value : 0.0,
                base.unit.c_str());
  }
}

void AddOutcome(RunRecord* record, WorkloadOutcome&& outcome) {
  record->attempted += outcome.attempted;
  record->failed += outcome.failed;
  for (std::string& f : outcome.failures) {
    record->failures.push_back(std::move(f));
  }
}

int RunOne(const Flags& flags) {
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  const Result<int64_t> seed = flags.GetInt("seed", 7);
  const Result<double> seconds = flags.GetDouble("seconds", 10.0);
  if (!seed.ok() || !seconds.ok() || *seed < 0 || *seconds < 0.0) {
    std::fprintf(stderr, "e2e_pipeline: --seed and --seconds take "
                         "non-negative numbers\n");
    return 2;
  }
  config.seed = static_cast<uint64_t>(*seed);
  config.seconds = *seconds;
  config.work_dir = flags.GetString("work-dir", "e2e_work");
  const std::string json_path = flags.GetString("json", "");
  const std::string trace_path = flags.GetString("trace", "");

  RunRecord record;
  record.workload = config.workload;
  record.seed = config.seed;
  record.seconds = config.seconds;
  record.traced = !trace_path.empty();
  record.host = HostFingerprint::Current();
  std::printf("e2e_pipeline: workload %s, seed %llu, %.3g s measured, %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              record.traced ? "traced" : "untraced");
  std::printf("host: %s\n", record.host.ToString().c_str());

  if (!record.traced) {
    Result<WorkloadOutcome> outcome = RunWorkload(config);
    if (!outcome.ok()) {
      std::fprintf(stderr, "e2e_pipeline: %s\n",
                   outcome.status().ToString().c_str());
      return 2;
    }
    record.metrics = outcome->e2e;
    PrintMetrics("end-to-end metrics:", record.metrics);
    AddOutcome(&record, std::move(*outcome));
  } else {
    // Set up once per sub-run: the traced run is for attribution, and
    // setup_s of record comes from untraced runs.
    config.single_setup = true;
    Result<WorkloadOutcome> untraced = RunWorkload(config);
    if (!untraced.ok()) {
      std::fprintf(stderr, "e2e_pipeline: %s\n",
                   untraced.status().ToString().c_str());
      return 2;
    }
    Tracer tracer;
    config.tracer = &tracer;
    Result<WorkloadOutcome> traced = RunWorkload(config);
    tracer.Finish();
    if (!traced.ok()) {
      std::fprintf(stderr, "e2e_pipeline: %s\n",
                   traced.status().ToString().c_str());
      return 2;
    }
    traced->layer["trace.unattributed_share"] = {
        tracer.MainUnattributedShare(), "ratio"};
    std::printf("%s", tracer.ReconciliationTable(Phase::kSetup).c_str());
    std::printf("%s", tracer.ReconciliationTable(Phase::kMeasure).c_str());
    PrintOverhead(untraced->e2e, traced->e2e);
    if (Status st = tracer.WriteChromeTrace(trace_path); !st.ok()) {
      std::fprintf(stderr, "e2e_pipeline: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("chrome trace -> %s\n", trace_path.c_str());
    record.metrics = traced->layer;
    PrintMetrics("per-layer metrics:", record.metrics);
    AddOutcome(&record, std::move(*untraced));
    AddOutcome(&record, std::move(*traced));
  }

  record.correct = record.failed == 0 && record.failures.empty();
  for (const std::string& f : record.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s (%llu attempted, %llu failed)\n",
              record.correct ? "all passed" : "FAILED",
              static_cast<unsigned long long>(record.attempted),
              static_cast<unsigned long long>(record.failed));
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << record.ToJson() << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "e2e_pipeline: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
  }
  std::printf("%s\n", record.ResultLine().c_str());
  std::fflush(stdout);
  return record.correct ? 0 : 1;
}

/// True when `metrics` holds exactly the defined names with their units.
bool SameMetricSet(const MetricMap& metrics, const std::vector<MetricDef>& defs,
                   std::string* why) {
  if (metrics.size() != defs.size()) {
    *why = std::to_string(metrics.size()) + " metrics, " +
           std::to_string(defs.size()) + " defined";
    return false;
  }
  for (const MetricDef& def : defs) {
    auto it = metrics.find(def.name);
    if (it == metrics.end() || it->second.unit != def.unit) {
      *why = "metric " + def.name + " missing or in another unit";
      return false;
    }
    if (!std::isfinite(it->second.value)) {
      *why = "metric " + def.name + " is not finite";
      return false;
    }
  }
  return true;
}

bool SameDefs(const std::vector<MetricDef>& a,
              const std::vector<MetricDef>& b) {
  std::set<std::pair<std::string, std::string>> sa, sb;
  for (const MetricDef& d : a) sa.insert({d.name, d.unit});
  for (const MetricDef& d : b) sb.insert({d.name, d.unit});
  return sa == sb && sa.size() == a.size() && sb.size() == b.size();
}

int RunSmoke(const Flags& flags) {
  const std::string work_dir = flags.GetString("work-dir", "e2e_smoke");
  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  for (const std::string& workload : WorkloadNames()) {
    RunConfig config;
    config.workload = workload;
    config.smoke = true;
    config.seconds = 0.0;
    config.work_dir = work_dir;
    RunRecord record;
    record.workload = workload;
    record.seed = config.seed;
    record.host = HostFingerprint::Current();

    Result<WorkloadOutcome> untraced = RunWorkload(config);
    report(untraced.ok(), workload + " runs");
    if (!untraced.ok()) {
      std::printf("     %s\n", untraced.status().ToString().c_str());
      continue;
    }
    for (const std::string& f : untraced->failures) {
      std::printf("     %s\n", f.c_str());
    }
    report(untraced->failures.empty() && untraced->failed == 0 &&
               untraced->attempted > 0,
           workload + " checks pass");
    std::string why;
    report(SameMetricSet(untraced->e2e, EndToEndMetrics(), &why),
           workload + " reports every end-to-end metric " + why);
    bool positive = true;
    for (const auto& [name, m] : untraced->e2e) positive &= m.value > 0.0;
    report(positive, workload + " end-to-end metrics are all above 0");

    Tracer tracer;
    config.tracer = &tracer;
    config.single_setup = true;
    Result<WorkloadOutcome> traced = RunWorkload(config);
    tracer.Finish();
    report(traced.ok() && traced->failures.empty(),
           workload + " traced run passes its checks");
    if (!traced.ok()) continue;
    traced->layer["trace.unattributed_share"] = {
        tracer.MainUnattributedShare(), "ratio"};
    why.clear();
    report(SameMetricSet(traced->layer, LayerMetrics(), &why),
           workload + " reports every per-layer metric " + why);
    const std::string trace_path = work_dir + "/trace-" + workload + ".json";
    Status written = tracer.WriteChromeTrace(trace_path);
    Result<std::string> text =
        written.ok() ? ReadFile(trace_path) : Result<std::string>(written);
    Result<JsonValue> trace =
        text.ok() ? ParseJson(*text) : Result<JsonValue>(text.status());
    bool trace_ok = false;
    if (trace.ok()) {
      auto it = trace->object.find("traceEvents");
      trace_ok = it != trace->object.end() &&
                 it->second.kind == JsonValue::Kind::kArray &&
                 !it->second.array.empty();
    }
    report(trace_ok, workload + " writes a Chrome trace-event file");

    record.metrics = untraced->e2e;
    record.attempted = untraced->attempted;
    record.correct = true;
    Result<RunRecord> back = RunRecord::FromJson(record.ToJson());
    report(back.ok() && *back == record, workload + " record round-trips");
    Result<JsonValue> line = ParseJson(record.ResultLine());
    std::set<std::string> keys;
    if (line.ok()) {
      for (const auto& [key, value] : line->object) keys.insert(key);
    }
    report(keys == std::set<std::string>{"attempted", "correct", "failed",
                                         "metrics"},
           workload + " result line has exactly its four keys");
  }

  const std::string spec_path = flags.GetString("benchmark-json", "");
  if (!spec_path.empty()) {
    Result<BenchmarkSpec> spec = LoadBenchmarkJson(spec_path);
    report(spec.ok(), "BENCHMARK.json parses");
    if (spec.ok()) {
      const std::set<std::string> listed(spec->workloads.begin(),
                                         spec->workloads.end());
      const std::set<std::string> known(WorkloadNames().begin(),
                                        WorkloadNames().end());
      report(listed == known && spec->workloads.size() == known.size(),
             "BENCHMARK.json lists exactly the workloads");
      report(SameDefs(spec->end_to_end, EndToEndMetrics()),
             "BENCHMARK.json lists exactly the end-to-end metrics");
      report(SameDefs(spec->per_layer, LayerMetrics()),
             "BENCHMARK.json lists exactly the per-layer metrics");
    }
  }
  std::printf("smoke: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int RunCompare(const Flags& flags) {
  Result<BenchmarkSpec> spec =
      LoadBenchmarkJson(flags.GetString("benchmark-json", "BENCHMARK.json"));
  if (!spec.ok()) {
    std::fprintf(stderr, "e2e_pipeline: %s\n",
                 spec.status().ToString().c_str());
    return 2;
  }
  std::map<std::string, std::pair<std::vector<RunRecord>,
                                  std::vector<RunRecord>>> sets;
  for (const bool base : {true, false}) {
    for (const std::string& path :
         SplitCommas(flags.GetString(base ? "compare" : "with", ""))) {
      Result<std::string> text = ReadFile(path);
      Result<RunRecord> record = text.ok() ? RunRecord::FromJson(*text)
                                           : Result<RunRecord>(text.status());
      if (!record.ok()) {
        std::fprintf(stderr, "e2e_pipeline: %s: %s\n", path.c_str(),
                     record.status().ToString().c_str());
        return 2;
      }
      auto& set = sets[record->workload];
      (base ? set.first : set.second).push_back(std::move(*record));
    }
  }
  bool regression = false;
  for (const auto& [workload, pair] : sets) {
    Result<std::vector<MetricComparison>> rows =
        CompareRunSets(pair.first, pair.second, spec->bounds);
    if (!rows.ok()) {
      std::fprintf(stderr, "e2e_pipeline: %s: %s\n", workload.c_str(),
                   rows.status().ToString().c_str());
      return 2;
    }
    std::printf("%s (%zu base, %zu candidate runs)\n", workload.c_str(),
                pair.first.size(), pair.second.size());
    std::printf("  %-12s %14s %8s %14s %8s %8s  %s\n", "metric", "base median",
                "spread", "cand median", "spread", "worse", "verdict");
    for (const MetricComparison& row : *rows) {
      regression |= row.regression;
      std::printf("  %-12s %14.6g %7.2f%% %14.6g %7.2f%% %7.2f%%  %s\n",
                  row.metric.c_str(), row.base.median,
                  100.0 * row.base.RelativeSpread(), row.candidate.median,
                  100.0 * row.candidate.RelativeSpread(), 100.0 * row.worse_by,
                  row.regression ? "REGRESSION" : "ok");
    }
  }
  return regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "e2e_pipeline: %s\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  const std::vector<std::string> unknown = flags->UnknownFlags(
      {"workload", "seed", "seconds", "work-dir", "json", "trace", "smoke",
       "benchmark-json", "compare", "with"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "e2e_pipeline: unknown flag --%s\n",
                 unknown.front().c_str());
    return 2;
  }
  if (flags->GetBool("smoke")) return RunSmoke(*flags);
  if (flags->Has("compare")) return RunCompare(*flags);
  if (!flags->Has("workload")) {
    std::fprintf(stderr,
                 "usage: e2e_pipeline --workload NAME [--seed S] [--seconds T] "
                 "[--work-dir DIR] [--json OUT] [--trace TRACE.json]\n"
                 "       e2e_pipeline --smoke [--work-dir DIR] "
                 "[--benchmark-json PATH]\n"
                 "       e2e_pipeline --compare A.json,... --with B.json,... "
                 "[--benchmark-json PATH]\n");
    return 2;
  }
  return RunOne(*flags);
}
