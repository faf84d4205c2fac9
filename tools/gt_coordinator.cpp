// gt_coordinator — control plane for distributed replay: accepts
// `gt_replay --worker` processes, deals disjoint shard ranges over the
// framed TCP protocol, drives the cross-process epoch barrier, detects
// worker death via heartbeat watchdogs and reassigns orphaned ranges to
// survivors (byte-exact resume from the range's last durable checkpoint),
// and merges per-range telemetry into one fleet report.
//
// Usage:
//   gt_coordinator --stream s.gts --total-shards 4 --workers 2
//       --checkpoint-prefix wd/cp --out wd/out [--listen 127.0.0.1:0]
//       [--port-file wd/port]
//
// Flags:
//   --stream FILE           stream every worker replays (required)
//   --total-shards N        global hash-partition width; must match the
//                           single-process golden's --shards (default 2)
//   --ranges N              shard ranges dealt (default: one per worker)
//   --workers N             fleet size; assignment starts once this many
//                           workers said HELLO (default 2)
//   --rate R                aggregate fleet rate, events/s (default 10000)
//   --checkpoint-prefix P   per-range checkpoint stores P.range<b>-<e>
//                           (required)
//   --checkpoint-every N    checkpoint cadence in events (default 5000)
//   --checkpoint-generations N  rotated generations kept (default 3)
//   --out PREFIX            per-lane outputs PREFIX.shard<s> (required)
//   --ignore-controls       do not honor SET_RATE / PAUSE
//   --listen HOST:PORT      bind address (default 127.0.0.1:0 = ephemeral)
//   --port-file FILE        write the bound port (scripts with port 0)
//   --heartbeat-timeout-ms M  declare a silent worker dead (default 2000)
//   --tick-ms M             main-loop cadence: reassignment scans and
//                           telemetry (default 100)
//   --max-runtime-ms M      abort an incompletable fleet (0 = unbounded)
//   --send-attempts N       control-plane send retries (default 3)
//   --backoff-seed S        retry jitter seed (default 1)
//   --telemetry-out FILE    gt-telemetry-v1 JSONL with the fleet recovery
//                           block (reassignments, downtime, MTTR)
//   --telemetry-period-ms M snapshot period (default 500)
//   --crash-at / --fault-plan  scripted coordinator crash points
//                           (coord-post-assign, coord-epoch-release)
//
// Exit code 0 on a drained fleet with exactly-once accounting, 1 on any
// failure.
#include <cstdio>

#include <string>

#include "common/fault_plan.h"
#include "common/flags.h"
#include "distributed/coordinator.h"
#include "stream/v2_format.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_coordinator: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A flag's default is what its destination holds before parsing.
  CoordinatorOptions options;
  std::string listen_spec = "127.0.0.1:0";  // port 0: see --port-file
  std::string port_file;
  std::string crash_at;
  std::string fault_plan_spec;
  bool ignore_controls = false;
  FlagTable flags("gt_coordinator");
  flags.Add("stream", &options.stream);
  flags.Add("total-shards", &options.total_shards);
  flags.Add("ranges", &options.ranges);
  flags.Add("workers", &options.workers);
  flags.Add("rate", &options.rate_eps);
  flags.Add("checkpoint-prefix", &options.checkpoint_prefix);
  flags.Add("checkpoint-every", &options.checkpoint_every);
  flags.Add("checkpoint-generations", &options.checkpoint_generations);
  flags.Add("out", &options.out_prefix);
  flags.Add("ignore-controls", &ignore_controls);
  flags.Add("listen", &listen_spec);
  flags.Add("port-file", &port_file);
  flags.Add("heartbeat-timeout-ms", &options.heartbeat_timeout_ms);
  flags.Add("tick-ms", &options.tick_ms);
  flags.Add("max-runtime-ms", &options.max_runtime_ms);
  flags.Add("send-attempts", &options.send_attempts);
  flags.Add("backoff-seed", &options.backoff_seed);
  flags.Add("telemetry-out", &options.telemetry_out);
  flags.Add("telemetry-period-ms", &options.telemetry_every_ms);
  flags.Add("crash-at", &crash_at);
  flags.Add("fault-plan", &fault_plan_spec);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;

  if (Status st =
          FaultPlan::Global().ConfigureFromFlags(fault_plan_spec, crash_at);
      !st.ok()) {
    return Fail(st);
  }
  if (options.total_shards < 1 || options.workers < 1) {
    return Fail(Status::InvalidArgument(
        "--total-shards and --workers must be >= 1"));
  }
  auto listen = ParseHostPort(listen_spec, "listen", /*allow_port_zero=*/true);
  if (!listen.ok()) return Fail(listen.status());
  options.host = listen->host;
  options.port = listen->port;
  options.honor_controls = !ignore_controls;
  if (Status st = ValidateCoordinatorOptions(options); !st.ok()) {
    return Fail(st);
  }
  // Workers open the stream themselves and auto-detect the encoding;
  // sniffing here surfaces a missing/garbled file before the fleet dials
  // in, and logs which format the fleet will replay.
  auto format = DetectStreamFormat(options.stream);
  if (!format.ok()) return Fail(format.status());
  std::fprintf(stderr, "gt_coordinator: stream %s (%s format)\n",
               options.stream.c_str(),
               std::string(StreamFormatName(*format)).c_str());

  Coordinator coordinator(options);
  auto bound = coordinator.Start();
  if (!bound.ok()) return Fail(bound.status());
  std::fprintf(stderr, "gt_coordinator: listening on %s:%u\n",
               options.host.c_str(), static_cast<unsigned>(*bound));
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "wb");
    if (f == nullptr) {
      return Fail(Status::IoError("cannot write " + port_file));
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(*bound));
    std::fclose(f);
  }

  auto report = coordinator.Run();
  if (!report.ok()) return Fail(report.status());
  std::fprintf(stderr, "%s\n", report->ToString().c_str());
  return 0;
}
