// gt_validate — checks a graph stream file for precondition violations and
// prints the workload's §4.4.1 property profile (event mix, direction,
// types, interleaving, sizes).
//
// Usage:
//   gt_validate --in stream.gts [--max-violations 10] [--quiet]
//   gt_validate --in stream.gts --strict
//   gt_validate --in run.telemetry.jsonl --telemetry
//
// --strict validates the file line by line instead of loading it whole:
// malformed lines (bad CSV, NUL bytes, over-long lines, non-numeric ids,
// truncated final records) are reported with their 1-based line numbers
// alongside precondition violations, and every problem is listed rather
// than stopping at the first parse error.
//
// Both stream formats are accepted and auto-detected by magic: CSV (v1)
// and the gt-stream-v2 binary block format. For v2 inputs, --strict
// streams record by record; a framing/CRC error stops the scan at that
// record (unlike CSV there is no line boundary to resync on), but all
// precondition violations up to that point are still listed.
//
// --telemetry validates a JSONL telemetry sidecar (gt_replay
// --telemetry-out) instead of a stream file: every line must parse as a
// "gt-telemetry-v1" snapshot, seq must increase by 1 from 0, elapsed_s and
// the cumulative events counter must be non-decreasing.
//
// --frontier validates a gt-frontier-v1 capacity artifact (gt_campaign
// --frontier / gt_replay --find-capacity): schema fields, strictly
// increasing offered rates, CI95 bounds bracketing each mean, near-SLO
// latency monotonicity, and the sustainable rate inside its own band.
//
// Exit code 0 for a valid stream, 2 for violations, 1 for usage/IO errors.
#include <cstdio>

#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/capacity/frontier.h"
#include "harness/telemetry/snapshot.h"
#include "stream/statistics.h"
#include "stream/stream_file.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"
#include "stream/validator.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_validate: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in;
  size_t max_violations = 10;
  bool quiet = false;
  bool strict = false;
  bool telemetry = false;
  bool frontier = false;
  FlagTable flags("gt_validate");
  flags.Add("in", &in);
  flags.Add("max-violations", &max_violations);
  flags.Add("quiet", &quiet);
  flags.Add("strict", &strict);
  flags.Add("telemetry", &telemetry);
  flags.Add("frontier", &frontier);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (in.empty()) return Fail(Status::InvalidArgument("--in is required"));

  if (frontier) {
    std::ifstream file(in);
    if (!file.good()) return Fail(Status::IoError("cannot read " + in));
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    auto artifact = FrontierArtifact::FromJson(text);
    if (!artifact.ok()) {
      std::printf("gt_validate: %s does not parse as %s: %s\n", in.c_str(),
                  std::string(kFrontierSchema).c_str(),
                  artifact.status().ToString().c_str());
      return 2;
    }
    if (Status st = ValidateFrontier(*artifact); !st.ok()) {
      std::printf("gt_validate: frontier invariant violated: %s\n",
                  st.ToString().c_str());
      return 2;
    }
    std::printf(
        "gt_validate: OK — %s frontier for %s/%s: %zu point(s), %zu "
        "step(s), sustainable %.0f ev/s (offered %.0f) under p99 SLO "
        "%.1f ms%s\n",
        std::string(kFrontierSchema).c_str(), artifact->sut.c_str(),
        artifact->workload.c_str(), artifact->points.size(),
        artifact->step_schedule.size(), artifact->sustainable_rate_eps,
        artifact->sustainable_offered_eps, artifact->slo_p99_ms,
        artifact->complete ? "" : " (search did not converge)");
    return 0;
  }

  if (telemetry) {
    std::ifstream file(in);
    if (!file.good()) return Fail(Status::IoError("cannot read " + in));
    size_t problems = 0;
    size_t lines = 0;
    uint64_t expected_seq = 0;
    double last_elapsed = -1.0;
    uint64_t last_events = 0;
    std::string line;
    TelemetrySnapshot last;
    auto complain = [&](const std::string& what) {
      if (problems < max_violations) {
        std::printf("  line %zu: %s\n", lines, what.c_str());
      }
      ++problems;
    };
    while (std::getline(file, line)) {
      ++lines;
      if (line.empty()) continue;
      auto snap = TelemetrySnapshot::FromJsonLine(line);
      if (!snap.ok()) {
        complain(snap.status().ToString());
        continue;
      }
      if (snap->seq != expected_seq) {
        complain("seq " + std::to_string(snap->seq) + ", expected " +
                 std::to_string(expected_seq));
      }
      expected_seq = snap->seq + 1;
      if (snap->elapsed_s < last_elapsed) complain("elapsed_s went backwards");
      if (snap->events < last_events) complain("events counter decreased");
      // Recovery counters are cumulative for the run; a decrease means a
      // snapshotter lost state across a resume.
      const RecoveryCounters& rec = snap->recovery;
      const RecoveryCounters& prev_rec = last.recovery;
      if (rec.crashes < prev_rec.crashes) {
        complain("recovery.crashes decreased");
      }
      if (rec.resumes < prev_rec.resumes) {
        complain("recovery.resumes decreased");
      }
      if (rec.checkpoint_fallbacks < prev_rec.checkpoint_fallbacks) {
        complain("recovery.checkpoint_fallbacks decreased");
      }
      if (rec.write_faults < prev_rec.write_faults) {
        complain("recovery.write_faults decreased");
      }
      if (rec.reassignments < prev_rec.reassignments) {
        complain("recovery.reassignments decreased");
      }
      if (rec.downtime_s < prev_rec.downtime_s) {
        complain("recovery.downtime_s decreased");
      }
      // mttr_s is derived (downtime over recoveries), not cumulative — a
      // fast recovery legitimately lowers it, so it is NOT checked.
      last_elapsed = snap->elapsed_s;
      last_events = snap->events;
      last = *snap;
    }
    if (lines == 0) {
      std::printf("gt_validate: telemetry file %s is empty\n", in.c_str());
      return 2;
    }
    if (problems > 0) {
      std::printf("gt_validate: %zu problem(s) in %zu snapshot line(s)\n",
                  problems, lines);
      return 2;
    }
    std::printf(
        "gt_validate: OK — %zu telemetry snapshot(s), final: %llu events "
        "over %.3f s across %zu shard(s)\n",
        lines, static_cast<unsigned long long>(last.events), last.elapsed_s,
        last.shard_events.size());
    if (last.recovery.any()) {
      std::printf(
          "  recovery: %llu crash(es), %llu resume(s), %llu checkpoint "
          "fallback(s), %llu write fault(s), %llu reassignment(s), %.3f s "
          "downtime, %.3f s MTTR\n",
          static_cast<unsigned long long>(last.recovery.crashes),
          static_cast<unsigned long long>(last.recovery.resumes),
          static_cast<unsigned long long>(last.recovery.checkpoint_fallbacks),
          static_cast<unsigned long long>(last.recovery.write_faults),
          static_cast<unsigned long long>(last.recovery.reassignments),
          last.recovery.downtime_s, last.recovery.mttr_s);
    }
    return 0;
  }

  auto in_format = DetectStreamFormat(in);
  if (!in_format.ok()) return Fail(in_format.status());

  if (strict) {
    if (*in_format == StreamFormat::kV2) {
      // v2 strict scan: record-by-record through the checksummed block
      // reader; preconditions checked incrementally. A framing/CRC error
      // ends the scan (no boundary to resync on past a bad block).
      V2StreamReader reader;
      if (Status st = reader.Open(in); !st.ok()) return Fail(st);
      StreamValidator validator;
      size_t events_checked = 0;
      std::vector<std::string> problems;
      Event scratch;
      for (;;) {
        auto next = reader.Next();
        if (!next.ok()) {
          if (next.status().IsIoError()) return Fail(next.status());
          problems.push_back("malformed: " + next.status().ToString());
          break;
        }
        if (!next->has_value()) break;
        scratch = (*next)->Materialize();
        ++events_checked;
        if (Status st = validator.Check(scratch); !st.ok()) {
          problems.push_back("record " + std::to_string(events_checked) +
                             ": precondition violation: " + st.message());
        }
      }
      if (problems.empty()) {
        std::printf(
            "gt_validate: OK — %zu events (v2), no malformed records, no "
            "precondition violations\n",
            events_checked);
        return 0;
      }
      std::printf("gt_validate: %zu problem(s):\n", problems.size());
      for (const std::string& p : problems) {
        std::printf("  %s\n", p.c_str());
      }
      return 2;
    }
    auto report = ValidateStreamFile(in);
    if (!report.ok()) return Fail(report.status());
    if (report->valid()) {
      std::printf(
          "gt_validate: OK — %zu events, no malformed lines, no "
          "precondition violations\n",
          report->events_checked);
      return 0;
    }
    std::printf("gt_validate: %zu problem(s):\n", report->issues.size());
    for (const StreamFileIssue& issue : report->issues) {
      // Parse-error reasons already carry their "line N" context.
      if (issue.parse_error) {
        std::printf("  malformed: %s\n", issue.reason.c_str());
      } else {
        std::printf("  line %zu: precondition violation: %s\n", issue.line,
                    issue.reason.c_str());
      }
    }
    return 2;
  }

  auto events = ReadStreamFileAnyFormat(in);
  if (!events.ok()) return Fail(events.status());

  const StreamValidationReport report =
      ValidateStream(*events, max_violations);

  if (!quiet) {
    std::printf("%s\n", ComputeStreamStatistics(*events).ToString().c_str());
  }
  if (report.valid()) {
    std::printf("gt_validate: OK — %zu events, no precondition violations\n",
                report.events_checked);
    return 0;
  }
  std::printf("gt_validate: %zu violation(s) (showing up to %zu):\n",
              report.violations.size(), max_violations);
  for (const StreamViolation& v : report.violations) {
    std::printf("  event %zu: %s  [%s]\n", v.index, v.reason.c_str(),
                v.event.ToCsvLine().c_str());
  }
  return 2;
}
