#include "bench_lib.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/json.h"
#include "harness/telemetry/run_telemetry.h"

#ifndef GT_E2E_BUILD_TYPE
#define GT_E2E_BUILD_TYPE "unknown"
#endif

namespace graphtides::e2e {

namespace {

constexpr std::string_view kSchema = "gt-e2e-v1";

/// Shortest form that reads back as the same double: values keep every
/// digit they were measured with.
void AppendExactNumber(std::string* out, double v) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, result.ptr);
}

void AppendMetrics(std::string* out, const MetricMap& metrics) {
  out->append("{");
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out->append(", ");
    first = false;
    JsonAppendString(out, name);
    out->append(": {\"value\": ");
    AppendExactNumber(out, metric.value);
    out->append(", \"unit\": ");
    JsonAppendString(out, metric.unit);
    out->append("}");
  }
  out->append("}");
}

Result<const JsonValue*> RequireField(const JsonValue& obj,
                                      const std::string& key,
                                      JsonValue::Kind kind) {
  auto it = obj.object.find(key);
  if (it == obj.object.end() || it->second.kind != kind) {
    return Status::ParseError("missing or mistyped field \"" + key + "\"");
  }
  return &it->second;
}

Result<uint64_t> RequireCount(const JsonValue& obj, const std::string& key) {
  GT_ASSIGN_OR_RETURN(const double v, JsonRequireNumber(obj, key));
  if (v < 0.0 || v != std::floor(v) || v > 9.0e15) {
    return Status::ParseError("field \"" + key + "\" is not a count");
  }
  return static_cast<uint64_t>(v);
}

Result<bool> RequireBool(const JsonValue& obj, const std::string& key) {
  GT_ASSIGN_OR_RETURN(const JsonValue* v,
                      RequireField(obj, key, JsonValue::Kind::kBool));
  return v->boolean;
}

}  // namespace

Quartiles Quartiles::Of(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return {PercentileSorted(sorted, 0.25), PercentileSorted(sorted, 0.5),
          PercentileSorted(sorted, 0.75)};
}

double Quartiles::RelativeSpread() const {
  return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

ConfidenceInterval Ci95(const std::vector<double>& values) {
  return MeanConfidenceInterval(values, 0.95);
}

HostFingerprint HostFingerprint::Current() {
  HostFingerprint fp;
  fp.cores = std::thread::hardware_concurrency();
  fp.build_type = GT_E2E_BUILD_TYPE;
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.telemetry = kTelemetryCompiled;
  return fp;
}

std::string HostFingerprint::ToString() const {
  return std::to_string(cores) + " cores, " + build_type + ", " + compiler +
         ", telemetry " + (telemetry ? "on" : "off");
}

void JsonAppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string RunRecord::ToJson() const {
  std::string out = "{\"schema\": ";
  JsonAppendString(&out, kSchema);
  out.append(", \"workload\": ");
  JsonAppendString(&out, workload);
  out.append(", \"seed\": ");
  JsonAppendNumber(&out, seed);
  out.append(", \"seconds\": ");
  AppendExactNumber(&out, seconds);
  out.append(", \"traced\": ").append(traced ? "true" : "false");
  out.append(", \"host\": {\"cores\": ");
  JsonAppendNumber(&out, static_cast<uint64_t>(host.cores));
  out.append(", \"build_type\": ");
  JsonAppendString(&out, host.build_type);
  out.append(", \"compiler\": ");
  JsonAppendString(&out, host.compiler);
  out.append(", \"telemetry\": ").append(host.telemetry ? "true" : "false");
  out.append("}, \"correct\": ").append(correct ? "true" : "false");
  out.append(", \"attempted\": ");
  JsonAppendNumber(&out, attempted);
  out.append(", \"failed\": ");
  JsonAppendNumber(&out, failed);
  out.append(", \"failures\": [");
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out.append(", ");
    JsonAppendString(&out, failures[i]);
  }
  out.append("], \"metrics\": ");
  AppendMetrics(&out, metrics);
  out.append("}");
  return out;
}

Result<RunRecord> RunRecord::FromJson(std::string_view text) {
  GT_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(text));
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::ParseError("record is not a JSON object");
  }
  GT_ASSIGN_OR_RETURN(const std::string schema,
                      JsonRequireString(root, "schema"));
  if (schema != kSchema) {
    return Status::ParseError("unknown record schema \"" + schema + "\"");
  }
  RunRecord r;
  GT_ASSIGN_OR_RETURN(r.workload, JsonRequireString(root, "workload"));
  GT_ASSIGN_OR_RETURN(r.seed, RequireCount(root, "seed"));
  GT_ASSIGN_OR_RETURN(r.seconds, JsonRequireNumber(root, "seconds"));
  GT_ASSIGN_OR_RETURN(r.traced, RequireBool(root, "traced"));
  GT_ASSIGN_OR_RETURN(const JsonValue* host,
                      RequireField(root, "host", JsonValue::Kind::kObject));
  GT_ASSIGN_OR_RETURN(const uint64_t cores, RequireCount(*host, "cores"));
  r.host.cores = static_cast<uint32_t>(cores);
  GT_ASSIGN_OR_RETURN(r.host.build_type,
                      JsonRequireString(*host, "build_type"));
  GT_ASSIGN_OR_RETURN(r.host.compiler, JsonRequireString(*host, "compiler"));
  GT_ASSIGN_OR_RETURN(r.host.telemetry, RequireBool(*host, "telemetry"));
  GT_ASSIGN_OR_RETURN(r.correct, RequireBool(root, "correct"));
  GT_ASSIGN_OR_RETURN(r.attempted, RequireCount(root, "attempted"));
  GT_ASSIGN_OR_RETURN(r.failed, RequireCount(root, "failed"));
  GT_ASSIGN_OR_RETURN(const JsonValue* failures,
                      RequireField(root, "failures", JsonValue::Kind::kArray));
  for (const JsonValue& f : failures->array) {
    if (f.kind != JsonValue::Kind::kString) {
      return Status::ParseError("failures must be strings");
    }
    r.failures.push_back(f.str);
  }
  GT_ASSIGN_OR_RETURN(const JsonValue* metrics,
                      RequireField(root, "metrics", JsonValue::Kind::kObject));
  for (const auto& [name, m] : metrics->object) {
    if (m.kind != JsonValue::Kind::kObject) {
      return Status::ParseError("metric \"" + name + "\" is not an object");
    }
    MetricValue v;
    GT_ASSIGN_OR_RETURN(v.value, JsonRequireNumber(m, "value"));
    GT_ASSIGN_OR_RETURN(v.unit, JsonRequireString(m, "unit"));
    r.metrics[name] = v;
  }
  return r;
}

std::string RunRecord::ResultLine() const {
  std::string out = "{\"correct\": ";
  out.append(correct ? "true" : "false");
  out.append(", \"attempted\": ");
  JsonAppendNumber(&out, attempted);
  out.append(", \"failed\": ");
  JsonAppendNumber(&out, failed);
  out.append(", \"metrics\": ");
  AppendMetrics(&out, metrics);
  out.append("}");
  return out;
}

Result<std::vector<MetricComparison>> CompareRunSets(
    const std::vector<RunRecord>& base, const std::vector<RunRecord>& candidate,
    const std::vector<MetricSpec>& specs) {
  if (base.empty() || candidate.empty()) {
    return Status::PreconditionFailed("both run sets need at least one record");
  }
  const RunRecord& ref = base.front();
  for (const auto* set : {&base, &candidate}) {
    for (const RunRecord& r : *set) {
      if (r.workload != ref.workload) {
        return Status::PreconditionFailed("run sets mix workloads (" +
                                          ref.workload + ", " + r.workload +
                                          ")");
      }
      if (!(r.host == ref.host)) {
        return Status::PreconditionFailed(
            "host fingerprints differ: [" + ref.host.ToString() + "] vs [" +
            r.host.ToString() + "]");
      }
    }
  }
  std::vector<MetricComparison> out;
  for (const MetricSpec& spec : specs) {
    std::vector<double> b, c;
    bool complete = true;
    for (const auto& [set, values] :
         {std::pair{&base, &b}, std::pair{&candidate, &c}}) {
      for (const RunRecord& r : *set) {
        auto it = r.metrics.find(spec.name);
        if (it == r.metrics.end()) {
          complete = false;
          break;
        }
        values->push_back(it->second.value);
      }
    }
    if (!complete) continue;
    MetricComparison cmp;
    cmp.metric = spec.name;
    cmp.base = Quartiles::Of(b);
    cmp.candidate = Quartiles::Of(c);
    cmp.base_ci = Ci95(b);
    cmp.candidate_ci = Ci95(c);
    if (cmp.base.median != 0.0) {
      const double rel = (cmp.candidate.median - cmp.base.median) /
                         std::fabs(cmp.base.median);
      cmp.worse_by = spec.lower_is_better ? rel : -rel;
    }
    cmp.regression = cmp.base_ci.DisjointFrom(cmp.candidate_ci) &&
                     cmp.worse_by > spec.bound;
    out.push_back(cmp);
  }
  return out;
}

}  // namespace graphtides::e2e
