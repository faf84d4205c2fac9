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
#include "common/string_util.h"
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
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const Flags& flags = *flags_or;
  const auto unknown = flags.UnknownFlags(
      {"stream", "total-shards", "ranges", "workers", "rate",
       "checkpoint-prefix", "checkpoint-every", "checkpoint-generations",
       "out", "ignore-controls", "listen", "port-file",
       "heartbeat-timeout-ms", "tick-ms", "max-runtime-ms", "send-attempts",
       "backoff-seed", "telemetry-out", "telemetry-period-ms", "crash-at",
       "fault-plan", "help"});
  if (!unknown.empty()) {
    return Fail(Status::InvalidArgument("unknown flag --" + unknown[0]));
  }
  if (flags.GetBool("help")) {
    std::printf(
        "usage: gt_coordinator --stream FILE --total-shards N --workers N "
        "--checkpoint-prefix P --out PREFIX\n"
        "       [--ranges N] [--rate R] [--checkpoint-every N] "
        "[--checkpoint-generations N] [--ignore-controls]\n"
        "       [--listen HOST:PORT] [--port-file FILE] "
        "[--heartbeat-timeout-ms M] [--max-runtime-ms M]\n"
        "       [--send-attempts N] [--backoff-seed S] "
        "[--telemetry-out FILE] [--telemetry-period-ms M]\n"
        "       [--crash-at POINT[:N]] [--fault-plan SPEC]\n");
    return 0;
  }

  FaultPlan& fault_plan = FaultPlan::Global();
  if (Status st = fault_plan.ConfigureFromEnv(); !st.ok()) return Fail(st);
  if (flags.Has("fault-plan")) {
    if (Status st = fault_plan.Configure(flags.GetString("fault-plan", ""));
        !st.ok()) {
      return Fail(st);
    }
  }
  if (flags.Has("crash-at")) {
    for (const std::string_view part :
         SplitString(flags.GetString("crash-at", ""), ',')) {
      const std::string_view point = TrimWhitespace(part);
      if (point.empty()) continue;
      if (Status st = fault_plan.Configure("crash=" + std::string(point));
          !st.ok()) {
        return Fail(st);
      }
    }
  }

  auto total_shards = flags.GetInt("total-shards", 2);
  auto ranges = flags.GetInt("ranges", 0);
  auto workers = flags.GetInt("workers", 2);
  auto rate = flags.GetDouble("rate", 10000.0);
  auto checkpoint_every = flags.GetInt("checkpoint-every", 5000);
  auto checkpoint_generations = flags.GetInt("checkpoint-generations", 3);
  auto heartbeat_timeout_ms = flags.GetInt("heartbeat-timeout-ms", 2000);
  auto tick_ms = flags.GetInt("tick-ms", 100);
  auto max_runtime_ms = flags.GetInt("max-runtime-ms", 0);
  auto send_attempts = flags.GetInt("send-attempts", 3);
  auto backoff_seed = flags.GetInt("backoff-seed", 1);
  auto telemetry_period_ms = flags.GetInt("telemetry-period-ms", 500);
  for (const Status& st :
       {total_shards.status(), ranges.status(), workers.status(),
        rate.status(), checkpoint_every.status(),
        checkpoint_generations.status(), heartbeat_timeout_ms.status(),
        tick_ms.status(), max_runtime_ms.status(), send_attempts.status(),
        backoff_seed.status(), telemetry_period_ms.status()}) {
    if (!st.ok()) return Fail(st);
  }
  if (*total_shards < 1 || *workers < 1) {
    return Fail(Status::InvalidArgument(
        "--total-shards and --workers must be >= 1"));
  }

  CoordinatorOptions options;
  // Port 0 asks the OS for an ephemeral port (see --port-file).
  auto listen = ParseHostPort(flags.GetString("listen", "127.0.0.1:0"),
                              "listen", /*allow_port_zero=*/true);
  if (!listen.ok()) return Fail(listen.status());
  options.host = listen->host;
  options.port = listen->port;
  options.stream = flags.GetString("stream", "");
  options.total_shards = static_cast<uint32_t>(*total_shards);
  options.ranges = static_cast<uint32_t>(*ranges);
  options.workers = static_cast<size_t>(*workers);
  options.rate_eps = *rate;
  options.checkpoint_prefix = flags.GetString("checkpoint-prefix", "");
  options.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  options.checkpoint_generations =
      static_cast<uint64_t>(*checkpoint_generations);
  options.out_prefix = flags.GetString("out", "");
  options.honor_controls = !flags.GetBool("ignore-controls");
  options.heartbeat_timeout_ms = static_cast<int>(*heartbeat_timeout_ms);
  options.tick_ms = static_cast<int>(*tick_ms);
  options.max_runtime_ms = static_cast<int>(*max_runtime_ms);
  options.send_attempts = static_cast<int>(*send_attempts);
  options.backoff_seed = static_cast<uint64_t>(*backoff_seed);
  options.telemetry_out = flags.GetString("telemetry-out", "");
  options.telemetry_every_ms = static_cast<int>(*telemetry_period_ms);
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
  const std::string port_file = flags.GetString("port-file", "");
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
