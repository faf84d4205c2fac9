// gt_replay — the graph stream replayer as a standalone tool (Fig. 2
// "Graph Stream Replayer"; the paper's Java 9 tool, reimplemented).
//
// Streams a stream file to stdout (pipe setup) or a TCP endpoint at a
// uniform, tunable rate, honoring in-stream SET_RATE / PAUSE controls, and
// reports marker wall-clock timestamps plus achieved-rate statistics on
// stderr (the replayer-side instrumentation of §4.3 "Streaming Metrics").
//
// Runtime faults & resilience: --chaos-* flags inject delivery faults at
// runtime (ChaosSink) and --retry-*/--on-failure flags wrap the transport
// in a ResilientSink (retry + backoff + reconnect + degradation policy);
// the resulting fault telemetry is reported on stderr and, with
// --marker-log, as harness log records.
//
// Usage:
//   gt_replay --in stream.gts --rate 10000                    # to stdout
//   gt_replay --in stream.gts --rate 10000 --tcp 127.0.0.1:9009
//   gt_replay --in stream.gts --tcp HOST:PORT
//       --chaos-seed 7 --chaos-fail 0.001 --chaos-disconnect 0.0002
//       --retry-budget 8 --on-failure block
//
// Flags:
//   --in FILE              stream file (required; CSV or gt-stream-v2,
//                          auto-detected by magic)
//   --wire-format F        csv (default) | v2 — preferred sink wire format,
//                          negotiated per sink: pipe/TCP transports carry
//                          sealed gt-stream-v2 blocks, decorated chains
//                          (--chaos-*/--retry-*) decline and stay on CSV.
//                          Incompatible with --resume-from and with
//                          checkpointed --out runs (a resume truncates sink
//                          files and would re-emit the v2 preamble).
//   --rate R               base emission rate in events/s (default 1000);
//                          with --shards N this is the TOTAL rate, split
//                          evenly across shard lanes
//   --shards N             partition the stream into N parallel lanes
//                          (vertices by id, edges by source); each lane has
//                          its own emitter thread and sink connection, and
//                          markers/controls form cross-shard barriers
//   --tcp HOST:PORT        stream over TCP instead of stdout; with
//                          --shards N, N connections to the same endpoint
//   --connect-timeout-ms M TCP connect deadline per attempt (0 = OS
//                          default blocking connect)
//   --connect-attempts N   bounded connect retries with linear backoff
//                          (default 1)
//   --ignore-controls      do not honor SET_RATE / PAUSE events
//   --marker-log FILE      write marker + telemetry records (CSV)
//   --chaos-seed S         chaos schedule seed (default 1)
//   --chaos-fail P         per-attempt transient failure probability
//   --chaos-disconnect P   per-attempt forced-disconnect probability (TCP)
//   --chaos-stall P        per-attempt stall probability
//   --chaos-stall-ms M     stall duration (default 2)
//   --retry-budget N       retries per delivery (default 5)
//   --retry-backoff-ms M   initial backoff (default 1)
//   --deliver-timeout-ms M per-delivery timeout, 0 = unlimited
//   --on-failure POLICY    fail | drop | block (default fail)
//
// File output (kill–resume equivalence over files):
//   --out PREFIX           write events to PREFIX (1 shard) or
//                          PREFIX.shard<N> files instead of stdout.
//                          Checkpoints then flush the sinks and record
//                          per-shard byte offsets; a resume truncates each
//                          file to its checkpointed offset and appends, so
//                          the bytes concatenate identically with an
//                          uninterrupted run.
//
// Supervision (checkpoint/resume + watchdog):
//   --checkpoint-file FILE checkpoint destination (atomic replace)
//   --checkpoint-every N   write a checkpoint every N delivered events
//   --checkpoint-generations N  keep N rotated generations (default 1);
//                          a torn/corrupt newest record falls back to an
//                          intact ancestor on --resume-from
//   --resume-from FILE     resume from the newest good checkpoint
//                          generation at FILE
//   --stop-after N         stop cleanly after N events (writes a final
//                          checkpoint; models a controlled kill)
//   --watchdog-ms M        abort the run when no event is delivered for
//                          M milliseconds (0 = no watchdog)
//
// Scripted process faults (crash-consistency drills; see
// common/fault_plan.h for the spec grammar and crash points):
//   --crash-at P[:N]       SIGKILL the process at the N-th hit of the
//                          named crash point (post-delivery,
//                          mid-checkpoint-write, pre-checkpoint-rename,
//                          post-checkpoint, epoch-barrier). Also honored
//                          from the GT_CRASH_AT environment variable.
//   --fault-plan SPEC      full fault-plan spec (crash=, torn=, enospc=,
//                          short-write=, fail=, seed=); also honored from
//                          GT_FAULT_PLAN
//
// Live telemetry (§4.3 extended to the replayer's own pipeline):
//   --telemetry-out DEST   emit JSONL telemetry snapshots (schema
//                          "gt-telemetry-v1") during the run: events/s,
//                          per-stage latency percentiles, shard balance,
//                          marker correlation, delivery-fault counters.
//                          DEST is a sidecar file path, or "-" for stderr
//                          (stdout carries the event stream in pipe mode).
//                          Also prints a per-stage percentile table at the
//                          end of the run.
//   --telemetry-period-ms M  snapshot period (default 500)
//   --telemetry-sample N     sample 1-in-N events for stage spans
//                            (default 64)
//
// Closed-loop capacity search (DESIGN.md §16): instead of replaying at a
// fixed --rate, discover the highest rate the downstream sustains under a
// latency SLO. A controller thread drives the CapacitySearch decision
// engine (geometric bracketing, then bisection refinement) against
// windowed deltas of the live telemetry hub, retargeting the emitter lanes
// in place — RateController::Retarget re-anchors the pacing schedule, so a
// rate change never produces a catch-up burst. When the search concludes
// it stops the replay; that stop is the success path of the run.
//   --find-capacity        enable the search (single and sharded lanes)
//   --slo-p99-ms X         the SLO: a window violates when its latency p99
//                          exceeds X ms (default 100)
//   --capacity-start-rate R  first offered rate (default: --rate)
//   --capacity-max-rate R  bracketing cap (default 1e6)
//   --capacity-growth G    bracketing ramp factor (default 2)
//   --capacity-resolution F  refinement stop width, relative (default 0.05)
//   --capacity-warmup-ms M  settle time after each retarget, excluded from
//                          measurement (default 300)
//   --capacity-window-ms M  measurement window length (default 500)
//   --capacity-windows N   windows per rate step (default 3)
//   --capacity-confirm N   violating windows that flip a step (default 2)
//   --capacity-max-steps N  hard cap on rate steps (default 32)
//   --capacity-signal S    latency signal: auto | marker | deliver
//                          (default auto: marker latency when markers
//                          matched, else the deliver-stage span)
//   --frontier-out FILE    write the gt-frontier-v1 artifact
//
// Distributed replay (one worker in a gt_coordinator fleet; see
// src/distributed/ and DESIGN.md §12):
//   --worker               run as a replay worker: everything else
//                          (stream, shard range, rate, checkpoint, output)
//                          arrives over the control channel
//   --coordinator HOST:PORT  coordinator control endpoint (required)
//   --worker-id ID         stable identity across reconnects
//   --dial-attempts N      re-dial budget (exponential backoff + jitter)
//   --heartbeat-ms M       heartbeat interval (default 200)
//   --epoch-wait-ms M      partition rule: quiesce when an epoch release
//                          does not arrive within M ms (default 10000)
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_plan.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "distributed/worker.h"
#include "faults/chaos_sink.h"
#include "harness/capacity/capacity_search.h"
#include "harness/capacity/frontier.h"
#include "harness/capacity/window_probe.h"
#include "harness/log_record.h"
#include "harness/report.h"
#include "harness/run_watchdog.h"
#include "harness/telemetry/run_telemetry.h"
#include "harness/telemetry/snapshotter.h"
#include "replayer/checkpoint.h"
#include "replayer/resilient_sink.h"
#include "replayer/sharded_replayer.h"
#include "replayer/tcp.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_replay: %s\n", status.ToString().c_str());
  return 1;
}

Status ConfigureFaultPlan(const Flags& flags) {
  FaultPlan& fault_plan = FaultPlan::Global();
  GT_RETURN_NOT_OK(fault_plan.ConfigureFromEnv());
  if (flags.Has("fault-plan")) {
    GT_RETURN_NOT_OK(
        fault_plan.Configure(flags.GetString("fault-plan", "")));
  }
  if (flags.Has("crash-at")) {
    const std::string crash_at = flags.GetString("crash-at", "");
    for (const std::string_view part : SplitString(crash_at, ',')) {
      const std::string_view point = TrimWhitespace(part);
      if (point.empty()) continue;
      GT_RETURN_NOT_OK(
          fault_plan.Configure("crash=" + std::string(point)));
    }
  }
  return Status::OK();
}

// --worker: hand this process to a coordinator as a distributed replay
// worker. All replay parameters (stream, range, rate, checkpointing,
// output) arrive over the control channel in ASSIGN frames.
int RunWorkerMode(const Flags& flags) {
  if (Status st = ConfigureFaultPlan(flags); !st.ok()) return Fail(st);
  const std::string spec = flags.GetString("coordinator", "");
  const auto parts = SplitString(spec, ':');
  if (parts.size() != 2) {
    return Fail(
        Status::InvalidArgument("--worker requires --coordinator HOST:PORT"));
  }
  auto port = ParseUint64(parts[1]);
  if (!port.ok() || *port == 0 || *port > 65535) {
    return Fail(Status::InvalidArgument("bad port in --coordinator"));
  }
  auto connect_timeout_ms = flags.GetInt("connect-timeout-ms", 2000);
  auto dial_attempts = flags.GetInt("dial-attempts", 15);
  auto heartbeat_ms = flags.GetInt("heartbeat-ms", 200);
  auto epoch_wait_ms = flags.GetInt("epoch-wait-ms", 10000);
  auto backoff_seed = flags.GetInt("backoff-seed", 1);
  for (const Status& st :
       {connect_timeout_ms.status(), dial_attempts.status(),
        heartbeat_ms.status(), epoch_wait_ms.status(),
        backoff_seed.status()}) {
    if (!st.ok()) return Fail(st);
  }

  ReplayWorkerOptions options;
  options.coordinator_host = std::string(parts[0]);
  options.coordinator_port = static_cast<uint16_t>(*port);
  options.worker_id = flags.GetString("worker-id", "");
  options.connect_timeout_ms = static_cast<int>(*connect_timeout_ms);
  options.dial_attempts = static_cast<int>(*dial_attempts);
  options.heartbeat_interval_ms = static_cast<int>(*heartbeat_ms);
  options.epoch_wait_timeout_ms = static_cast<int>(*epoch_wait_ms);
  options.backoff_seed = static_cast<uint64_t>(*backoff_seed);

  ReplayWorker worker(options);
  const Status status = worker.Run();
  const ReplayWorker::Totals totals = worker.totals();
  std::fprintf(
      stderr,
      "gt_replay: worker %s — %llu local events over %llu task(s), %llu "
      "resume(s), %llu quiesce(s), %llu checkpoint fallback(s)\n",
      status.ok() ? "done" : "failed",
      static_cast<unsigned long long>(totals.local_events),
      static_cast<unsigned long long>(totals.tasks_started),
      static_cast<unsigned long long>(totals.resumes),
      static_cast<unsigned long long>(totals.quiesces),
      static_cast<unsigned long long>(totals.checkpoint_fallbacks));
  if (!status.ok()) return Fail(status);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags_or = Flags::Parse(argc, argv);
  if (!flags_or.ok()) return Fail(flags_or.status());
  const Flags& flags = *flags_or;
  const auto unknown = flags.UnknownFlags(
      {"in", "rate", "shards", "tcp", "out", "wire-format", "ignore-controls",
       "marker-log",
       "chaos-seed", "chaos-fail", "chaos-disconnect", "chaos-stall",
       "chaos-stall-ms", "retry-budget", "retry-backoff-ms",
       "deliver-timeout-ms", "on-failure", "checkpoint-file",
       "checkpoint-every", "checkpoint-generations", "resume-from",
       "stop-after", "watchdog-ms", "crash-at", "fault-plan",
       "telemetry-out", "telemetry-period-ms", "telemetry-sample",
       "find-capacity", "slo-p99-ms", "capacity-start-rate",
       "capacity-max-rate", "capacity-growth", "capacity-resolution",
       "capacity-warmup-ms", "capacity-window-ms", "capacity-windows",
       "capacity-confirm", "capacity-max-steps", "capacity-signal",
       "frontier-out",
       "connect-timeout-ms", "connect-attempts", "worker", "coordinator",
       "worker-id", "dial-attempts", "heartbeat-ms", "epoch-wait-ms",
       "backoff-seed", "help"});
  if (!unknown.empty()) {
    return Fail(Status::InvalidArgument("unknown flag --" + unknown[0]));
  }
  if (flags.GetBool("worker")) return RunWorkerMode(flags);
  if (flags.GetBool("help")) {
    std::printf(
        "usage: gt_replay --in FILE --rate R [--shards N] [--tcp HOST:PORT | "
        "--out PREFIX] [--wire-format csv|v2] [--ignore-controls] "
        "[--marker-log FILE]\n"
        "       [--chaos-seed S --chaos-fail P --chaos-disconnect P "
        "--chaos-stall P --chaos-stall-ms M]\n"
        "       [--retry-budget N --retry-backoff-ms M "
        "--deliver-timeout-ms M --on-failure fail|drop|block]\n"
        "       [--checkpoint-file FILE --checkpoint-every N "
        "--checkpoint-generations N --resume-from FILE --stop-after N "
        "--watchdog-ms M]\n"
        "       [--crash-at POINT[:N] --fault-plan SPEC]\n"
        "       [--telemetry-out FILE|- --telemetry-period-ms M "
        "--telemetry-sample N]\n"
        "       [--find-capacity --slo-p99-ms X --capacity-start-rate R "
        "--capacity-max-rate R --capacity-growth G "
        "--capacity-resolution F]\n"
        "       [--capacity-warmup-ms M --capacity-window-ms M "
        "--capacity-windows N --capacity-confirm N --capacity-max-steps N "
        "--capacity-signal auto|marker|deliver --frontier-out FILE]\n");
    return 0;
  }

  const std::string in = flags.GetString("in", "");
  if (in.empty()) return Fail(Status::InvalidArgument("--in is required"));
  auto rate = flags.GetDouble("rate", 1000.0);
  if (!rate.ok()) return Fail(rate.status());
  if (*rate <= 0.0) {
    return Fail(Status::InvalidArgument("--rate must be positive"));
  }

  auto shards_flag = flags.GetInt("shards", 1);
  if (!shards_flag.ok()) return Fail(shards_flag.status());
  if (*shards_flag < 1) {
    return Fail(Status::InvalidArgument("--shards must be >= 1"));
  }
  const size_t shards = static_cast<size_t>(*shards_flag);

  const std::string wire_name = flags.GetString("wire-format", "csv");
  if (wire_name != "csv" && wire_name != "v2") {
    return Fail(
        Status::InvalidArgument("unknown --wire-format: " + wire_name));
  }
  const bool v2_wire = wire_name == "v2";

  auto chaos_seed = flags.GetInt("chaos-seed", 1);
  auto chaos_fail = flags.GetDouble("chaos-fail", 0.0);
  auto chaos_disconnect = flags.GetDouble("chaos-disconnect", 0.0);
  auto chaos_stall = flags.GetDouble("chaos-stall", 0.0);
  auto chaos_stall_ms = flags.GetInt("chaos-stall-ms", 2);
  auto retry_budget = flags.GetInt("retry-budget", 5);
  auto retry_backoff_ms = flags.GetInt("retry-backoff-ms", 1);
  auto deliver_timeout_ms = flags.GetInt("deliver-timeout-ms", 0);
  auto checkpoint_every = flags.GetInt("checkpoint-every", 0);
  auto checkpoint_generations = flags.GetInt("checkpoint-generations", 1);
  auto stop_after = flags.GetInt("stop-after", 0);
  auto watchdog_ms = flags.GetInt("watchdog-ms", 0);
  auto telemetry_period_ms = flags.GetInt("telemetry-period-ms", 500);
  auto telemetry_sample = flags.GetInt("telemetry-sample", 64);
  auto connect_timeout_ms = flags.GetInt("connect-timeout-ms", 0);
  auto connect_attempts = flags.GetInt("connect-attempts", 1);
  for (const Status& st :
       {chaos_seed.status(), chaos_fail.status(), chaos_disconnect.status(),
        chaos_stall.status(), chaos_stall_ms.status(), retry_budget.status(),
        retry_backoff_ms.status(), deliver_timeout_ms.status(),
        checkpoint_every.status(), checkpoint_generations.status(),
        stop_after.status(), watchdog_ms.status(),
        telemetry_period_ms.status(), telemetry_sample.status(),
        connect_timeout_ms.status(), connect_attempts.status()}) {
    if (!st.ok()) return Fail(st);
  }
  if (*checkpoint_generations < 1) {
    return Fail(
        Status::InvalidArgument("--checkpoint-generations must be >= 1"));
  }

  // Closed-loop capacity search flags. The controller itself is built
  // later, once the telemetry hub and emitter lanes exist.
  const bool find_capacity = flags.GetBool("find-capacity");
  auto slo_p99_ms = flags.GetDouble("slo-p99-ms", 100.0);
  auto capacity_start = flags.GetDouble("capacity-start-rate", *rate);
  auto capacity_max = flags.GetDouble("capacity-max-rate", 1e6);
  auto capacity_growth = flags.GetDouble("capacity-growth", 2.0);
  auto capacity_resolution = flags.GetDouble("capacity-resolution", 0.05);
  auto capacity_warmup_ms = flags.GetInt("capacity-warmup-ms", 300);
  auto capacity_window_ms = flags.GetInt("capacity-window-ms", 500);
  auto capacity_windows = flags.GetInt("capacity-windows", 3);
  auto capacity_confirm = flags.GetInt("capacity-confirm", 2);
  auto capacity_max_steps = flags.GetInt("capacity-max-steps", 32);
  for (const Status& st :
       {slo_p99_ms.status(), capacity_start.status(), capacity_max.status(),
        capacity_growth.status(), capacity_resolution.status(),
        capacity_warmup_ms.status(), capacity_window_ms.status(),
        capacity_windows.status(), capacity_confirm.status(),
        capacity_max_steps.status()}) {
    if (!st.ok()) return Fail(st);
  }
  CapacityProbe::Signal capacity_signal = CapacityProbe::Signal::kAuto;
  const std::string signal_name = flags.GetString("capacity-signal", "auto");
  if (signal_name == "marker") {
    capacity_signal = CapacityProbe::Signal::kMarker;
  } else if (signal_name == "deliver") {
    capacity_signal = CapacityProbe::Signal::kDeliver;
  } else if (signal_name != "auto") {
    return Fail(
        Status::InvalidArgument("unknown --capacity-signal: " + signal_name));
  }
  const std::string frontier_out = flags.GetString("frontier-out", "");

  // Scripted process faults: environment first (GT_FAULT_PLAN / GT_CRASH_AT
  // — how a supervisor arms a child without touching its argv), then the
  // explicit flags on top.
  FaultPlan& fault_plan = FaultPlan::Global();
  if (Status st = ConfigureFaultPlan(flags); !st.ok()) return Fail(st);

  const bool chaos_enabled =
      flags.Has("chaos-fail") || flags.Has("chaos-disconnect") ||
      flags.Has("chaos-stall") || !fault_plan.delivery_fail_points().empty();
  const bool resilience_enabled =
      chaos_enabled || flags.Has("retry-budget") ||
      flags.Has("retry-backoff-ms") || flags.Has("deliver-timeout-ms") ||
      flags.Has("on-failure");

  ChaosOptions chaos_options;
  chaos_options.seed = static_cast<uint64_t>(*chaos_seed);
  chaos_options.fail_probability = *chaos_fail;
  chaos_options.disconnect_probability = *chaos_disconnect;
  chaos_options.stall_probability = *chaos_stall;
  chaos_options.stall = Duration::FromMillis(*chaos_stall_ms);
  // Deterministic per-attempt fail points from the fault plan unify with
  // the probabilistic chaos schedule.
  chaos_options.fail_points = fault_plan.delivery_fail_points();

  ResilientSinkOptions resilient_options;
  resilient_options.retry_budget = static_cast<uint32_t>(*retry_budget);
  resilient_options.initial_backoff = Duration::FromMillis(*retry_backoff_ms);
  resilient_options.deliver_timeout =
      Duration::FromMillis(*deliver_timeout_ms);
  if (flags.Has("on-failure")) {
    auto policy = ParseDegradationPolicy(flags.GetString("on-failure", ""));
    if (!policy.ok()) return Fail(policy.status());
    resilient_options.policy = *policy;
  }

  CancellationToken cancel;
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = *rate;
  options.wire_format = v2_wire ? WireFormat::kV2 : WireFormat::kCsv;
  options.honor_control_events = !flags.GetBool("ignore-controls");
  options.cancel = &cancel;
  options.checkpoint_path = flags.GetString("checkpoint-file", "");
  options.checkpoint_every = static_cast<uint64_t>(*checkpoint_every);
  options.checkpoint_generations =
      static_cast<size_t>(*checkpoint_generations);
  options.stop_after_events = static_cast<uint64_t>(*stop_after);

  // Resume: load the newest good checkpoint generation BEFORE the sinks
  // are built — file-backed output must be truncated to the checkpointed
  // byte offsets before it reopens for append.
  std::optional<ReplayCheckpoint> resume;
  size_t resume_fallbacks = 0;
  const std::string resume_from = flags.GetString("resume-from", "");
  if (v2_wire && !resume_from.empty()) {
    // A resume truncates sink files to the checkpointed offset and a fresh
    // sink would re-emit the v2 preamble mid-file; CSV stays the golden
    // resumable wire format.
    return Fail(Status::InvalidArgument(
        "--wire-format v2 cannot be combined with --resume-from; "
        "resume runs must use the CSV wire format"));
  }
  if (v2_wire && flags.Has("out") && *checkpoint_every > 0) {
    return Fail(Status::InvalidArgument(
        "--wire-format v2 cannot be combined with checkpointed --out runs "
        "(the checkpoint's sink byte offsets are only resumable over CSV)"));
  }
  if (!resume_from.empty()) {
    auto loaded = CheckpointStore::LoadLatestGood(resume_from);
    if (!loaded.ok()) return Fail(loaded.status());
    resume = loaded->checkpoint;
    resume_fallbacks = loaded->fallbacks;
    for (const std::string& reason : loaded->rejected) {
      std::fprintf(stderr, "gt_replay: checkpoint rejected: %s\n",
                   reason.c_str());
    }
    if (loaded->fallbacks > 0) {
      std::fprintf(
          stderr, "gt_replay: fell back %zu generation(s), resuming from %s\n",
          loaded->fallbacks,
          CheckpointStore::GenerationPath(resume_from, loaded->generation)
              .c_str());
    }
    std::fprintf(stderr,
                 "gt_replay: resuming at entry %llu (%llu events already "
                 "delivered)\n",
                 static_cast<unsigned long long>(resume->entries_consumed),
                 static_cast<unsigned long long>(resume->events_delivered));
  }

  // Sink chain, one per shard: transport -> [ChaosSink] -> [ResilientSink].
  // With --shards 1 this degenerates to the classic single chain; with
  // N > 1, each lane gets its own transport (own TCP connection, or a
  // PipeSink sharing stdout — serialized batches keep lines atomic) and
  // its own chaos schedule (seed + shard) and retry state.
  const std::string tcp_spec = flags.GetString("tcp", "");
  std::string tcp_host;
  uint16_t tcp_port = 0;
  if (!tcp_spec.empty()) {
    const auto parts = SplitString(tcp_spec, ':');
    if (parts.size() != 2) {
      return Fail(Status::InvalidArgument("--tcp expects HOST:PORT"));
    }
    auto port = ParseUint64(parts[1]);
    if (!port.ok() || *port > 65535) {
      return Fail(Status::InvalidArgument("bad port in --tcp"));
    }
    tcp_host = std::string(parts[0]);
    tcp_port = static_cast<uint16_t>(*port);
  } else if (*chaos_disconnect > 0.0) {
    std::fprintf(stderr,
                 "gt_replay: --chaos-disconnect requires --tcp; ignored\n");
    chaos_options.disconnect_probability = 0.0;
  }

  // --out PREFIX: per-shard output files. The deterministic alternative to
  // interleaved stdout — required for byte-exact kill–resume comparison.
  const std::string out_prefix = flags.GetString("out", "");
  if (!out_prefix.empty() && !tcp_spec.empty()) {
    return Fail(
        Status::InvalidArgument("--out and --tcp are mutually exclusive"));
  }
  auto out_path = [&](size_t s) {
    return shards == 1 ? out_prefix
                       : out_prefix + ".shard" + std::to_string(s);
  };
  std::vector<std::FILE*> out_files;

  std::vector<std::unique_ptr<TcpSink>> tcp_sinks;
  std::vector<std::unique_ptr<PipeSink>> pipe_sinks;
  std::vector<std::unique_ptr<ChaosSink>> chaos_sinks;
  std::vector<std::unique_ptr<ResilientSink>> resilient_sinks;
  std::vector<EventSink*> lane_sinks;
  for (size_t s = 0; s < shards; ++s) {
    EventSink* sink = nullptr;
    TcpSink* tcp = nullptr;
    if (!tcp_spec.empty()) {
      tcp_sinks.push_back(std::make_unique<TcpSink>());
      tcp = tcp_sinks.back().get();
      tcp->set_connect_timeout_ms(static_cast<int>(*connect_timeout_ms));
      tcp->set_connect_attempts(static_cast<int>(*connect_attempts));
      if (Status st = tcp->Connect(tcp_host, tcp_port); !st.ok()) {
        return Fail(st.WithContext("shard " + std::to_string(s)));
      }
      if (v2_wire) tcp->EnableV2Wire();
      sink = tcp;
    } else if (!out_prefix.empty()) {
      const std::string path = out_path(s);
      if (resume.has_value()) {
        // Kafka-style log truncation: the checkpoint's byte offset is the
        // durable high-water mark; everything past it was delivered after
        // the record (or half-flushed by the crash) and gets re-emitted.
        if (resume->sink_bytes.size() != shards) {
          return Fail(Status::InvalidArgument(
              "resume checkpoint has no per-shard sink byte offsets "
              "(written without --out, or shard count changed); cannot "
              "resume into --out files"));
        }
        struct ::stat file_stat {};
        if (::stat(path.c_str(), &file_stat) != 0) {
          return Fail(Status::IoError("cannot stat " + path));
        }
        if (static_cast<uint64_t>(file_stat.st_size) <
            resume->sink_bytes[s]) {
          return Fail(Status::IoError(
              path + " is shorter than its checkpointed offset (" +
              std::to_string(file_stat.st_size) + " < " +
              std::to_string(resume->sink_bytes[s]) + " bytes)"));
        }
        if (::truncate(path.c_str(),
                       static_cast<off_t>(resume->sink_bytes[s])) != 0) {
          return Fail(Status::IoError("cannot truncate " + path));
        }
      }
      std::FILE* f = std::fopen(path.c_str(), resume ? "ab" : "wb");
      if (f == nullptr) {
        return Fail(Status::IoError("cannot open " + path));
      }
      out_files.push_back(f);
      pipe_sinks.push_back(std::make_unique<PipeSink>(f));
      if (v2_wire) pipe_sinks.back()->EnableV2Wire();
      sink = pipe_sinks.back().get();
    } else {
      pipe_sinks.push_back(std::make_unique<PipeSink>(stdout));
      if (v2_wire) pipe_sinks.back()->EnableV2Wire();
      sink = pipe_sinks.back().get();
    }
    if (chaos_enabled) {
      ChaosOptions per_shard = chaos_options;
      per_shard.seed = chaos_options.seed + s;  // independent schedules
      ChaosSink::DisconnectFn disconnect;
      if (tcp != nullptr) disconnect = [tcp] { tcp->Sever(); };
      chaos_sinks.push_back(std::make_unique<ChaosSink>(
          sink, per_shard, std::move(disconnect)));
      sink = chaos_sinks.back().get();
    }
    if (resilience_enabled) {
      ResilientSink::ReconnectFn reconnect;
      if (tcp != nullptr) reconnect = [tcp] { return tcp->Reconnect(); };
      resilient_sinks.push_back(std::make_unique<ResilientSink>(
          sink, resilient_options, std::move(reconnect)));
      sink = resilient_sinks.back().get();
    }
    lane_sinks.push_back(sink);
  }
  if (resilience_enabled) {
    // Snapshot the retry-jitter RNG into checkpoints so a resumed run
    // replays the same backoff schedule an uninterrupted run would.
    // (Sharded runs snapshot shard 0's; the other lanes draw fresh jitter
    // on resume, which only perturbs backoff timing, never delivery.)
    options.checkpoint_rng = resilient_sinks[0]->mutable_jitter_rng();
  }
  // File-backed output is the byte-exactness contract: checkpoints flush
  // the sinks and record per-shard byte offsets.
  options.record_sink_bytes = !out_prefix.empty();

  // Live telemetry: hub + background JSONL snapshotter.
  const std::string telemetry_out = flags.GetString("telemetry-out", "");
  std::unique_ptr<RunTelemetry> telemetry;
  std::FILE* telemetry_file = nullptr;
  std::optional<TelemetrySnapshotter> snapshotter;
  // The capacity probe reads the same hub the snapshotter does, so
  // --find-capacity creates one even without --telemetry-out.
  if (!telemetry_out.empty() || find_capacity) {
    if (!kTelemetryCompiled) {
      std::fprintf(stderr,
                   "gt_replay: built with GT_TELEMETRY=OFF; --telemetry-out "
                   "will report only delivered counts%s\n",
                   find_capacity ? " and --find-capacity has no latency "
                                   "signal (every window reads as idle)"
                                 : "");
    }
    RunTelemetryOptions topt;
    topt.shards = shards;
    topt.sample_every = static_cast<uint32_t>(
        *telemetry_sample > 0 ? *telemetry_sample : 1);
    telemetry = std::make_unique<RunTelemetry>(topt);
  }
  if (!telemetry_out.empty()) {
    SnapshotterOptions sopt;
    sopt.period = Duration::FromMillis(
        *telemetry_period_ms > 0 ? *telemetry_period_ms : 500);
    if (telemetry_out == "-") {
      sopt.out = stderr;
    } else {
      telemetry_file = std::fopen(telemetry_out.c_str(), "w");
      if (telemetry_file == nullptr) {
        return Fail(Status::IoError("cannot create " + telemetry_out));
      }
      sopt.out = telemetry_file;
    }
    snapshotter.emplace(telemetry.get(), sopt);
  }
  if (telemetry != nullptr && resume.has_value()) {
    RecoveryCounters rec;
    rec.resumes = 1;
    rec.checkpoint_fallbacks = resume_fallbacks;
    telemetry->UpdateRecoveryCounters(rec);
  }

  // Decorated chains never opt in to the v2 wire — their outer sink
  // declines negotiation and the lane stays on CSV.
  if (v2_wire && (chaos_enabled || resilience_enabled)) {
    std::fprintf(stderr,
                 "gt_replay: --wire-format v2 with --chaos-*/--retry-* "
                 "sinks: decorated sinks decline v2; output stays CSV\n");
  }
  // Live rate retargeting: the capacity controller publishes new offered
  // rates here; the lanes poll it and re-anchor their pacing in place.
  std::atomic<double> rate_target{find_capacity ? *capacity_start : *rate};
  options.telemetry = telemetry.get();
  if (find_capacity) {
    options.total_rate_eps = *capacity_start;
    options.rate_target_eps = &rate_target;
  }
  ShardedReplayer replayer(options);

  RunWatchdog watchdog([&] {
    WatchdogOptions w;
    if (*watchdog_ms > 0) w.stall_deadline = Duration::FromMillis(*watchdog_ms);
    return w;
  }());
  if (*watchdog_ms > 0) {
    watchdog.Arm([&replayer] { return replayer.progress(); },
                 [&cancel, &tcp_sinks](uint64_t last, Duration stalled) {
                   cancel.RequestCancel("watchdog: no progress past event " +
                                        std::to_string(last) + " for " +
                                        std::to_string(stalled.seconds()) +
                                        " s");
                   // Unblock a send() stuck on a wedged receiver; shutdown
                   // only, the emitter thread still owns the close.
                   for (auto& tcp : tcp_sinks) tcp->Abort();
                 });
  }

  // Capacity controller: drives the CapacitySearch decision engine against
  // windowed deltas of the live hub, retargeting the lanes at each step.
  // When the search concludes it cancels the replay — for a
  // --find-capacity run that cancellation is the success path.
  std::optional<CapacitySearch> search;
  std::atomic<bool> replay_done{false};
  std::atomic<bool> capacity_concluded{false};
  std::thread capacity_thread;
  MonotonicClock capacity_clock;
  if (find_capacity) {
    CapacitySearchOptions copt;
    copt.slo_p99_ms = *slo_p99_ms;
    copt.start_rate_eps = *capacity_start;
    copt.growth = *capacity_growth;
    copt.max_rate_eps = *capacity_max;
    copt.resolution = *capacity_resolution;
    copt.windows_per_step = static_cast<int>(*capacity_windows);
    copt.confirm_violations = static_cast<int>(*capacity_confirm);
    copt.max_steps = static_cast<int>(*capacity_max_steps);
    search.emplace(copt);
    const Duration warmup = Duration::FromMillis(*capacity_warmup_ms);
    const Duration window = Duration::FromMillis(
        *capacity_window_ms > 0 ? *capacity_window_ms : 500);
    capacity_thread = std::thread([&, warmup, window] {
      CapacityProbe probe(telemetry.get(), capacity_signal, &capacity_clock);
      // Sleeps are sliced so a finished replay (stream exhausted) or a
      // watchdog cancel stops the controller promptly; a false return
      // means the run ended mid-search and the artifact stays incomplete.
      auto settle = [&](Duration d) {
        const Timestamp until = capacity_clock.Now() + d;
        while (!replay_done.load(std::memory_order_acquire) &&
               !cancel.cancelled() && capacity_clock.Now() < until) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return !replay_done.load(std::memory_order_acquire) &&
               !cancel.cancelled();
      };
      while (!search->done()) {
        rate_target.store(search->current_rate_eps(),
                          std::memory_order_relaxed);
        if (!settle(warmup)) return;  // ramp transient, never measured
        probe.BeginWindow();
        for (bool concluded = false; !concluded;) {
          if (!settle(window)) return;
          // EndWindow re-baselines, so back-to-back windows partition the
          // step exactly.
          concluded = search->ReportWindow(probe.EndWindow());
        }
      }
      capacity_concluded.store(true, std::memory_order_release);
      cancel.RequestCancel("capacity search complete");
    });
  }

  if (snapshotter.has_value()) snapshotter->Start();
  Result<ShardedReplayStats> stats =
      replayer.ReplayFile(in, lane_sinks, resume ? &*resume : nullptr);
  watchdog.Disarm();
  replay_done.store(true, std::memory_order_release);
  if (capacity_thread.joinable()) capacity_thread.join();
  if (telemetry != nullptr) {
    if (resume.has_value() || fault_plan.write_faults_fired() > 0) {
      RecoveryCounters rec;
      rec.resumes = resume.has_value() ? 1 : 0;
      rec.checkpoint_fallbacks = resume_fallbacks;
      rec.write_faults = fault_plan.write_faults_fired();
      telemetry->UpdateRecoveryCounters(rec);
    }
    telemetry->markers().Finish();
  }
  if (snapshotter.has_value()) {
    snapshotter->Stop();
    if (telemetry_file != nullptr) std::fclose(telemetry_file);
  }
  for (std::FILE* f : out_files) std::fclose(f);
  out_files.clear();
  if (fault_plan.write_faults_fired() > 0) {
    std::fprintf(stderr, "gt_replay: %llu scripted write fault(s) fired\n",
                 static_cast<unsigned long long>(
                     fault_plan.write_faults_fired()));
  }
  // A cancellation raised by the concluded capacity search is this mode's
  // normal end of run, not a failure.
  const bool capacity_stopped_replay =
      find_capacity && !stats.ok() && stats.status().IsCancelled() &&
      capacity_concluded.load(std::memory_order_acquire);
  if (!stats.ok() && !capacity_stopped_replay) {
    if (stats.status().IsCancelled() && !options.checkpoint_path.empty()) {
      std::fprintf(stderr,
                   "gt_replay: aborted; resumable checkpoint left at %s\n",
                   options.checkpoint_path.c_str());
    }
    return Fail(stats.status());
  }

  if (stats.ok()) {
    const ReplayStats& total = stats->aggregate;
    std::fprintf(stderr,
                 "gt_replay: %zu events in %.3f s (%.0f ev/s achieved; "
                 "%zu markers, %zu controls)\n",
                 total.events_delivered, total.Elapsed().seconds(),
                 total.AchievedRateEps(), total.markers, total.controls);
    for (size_t s = 0; shards > 1 && s < shards; ++s) {
      std::fprintf(stderr, "gt_replay:   shard %zu: %zu events (%.0f ev/s)\n",
                   s, stats->per_shard[s].events_delivered,
                   stats->per_shard[s].AchievedRateEps());
    }
    if (total.stopped_early) {
      std::fprintf(stderr, "gt_replay: stopped early at --stop-after %llu\n",
                   static_cast<unsigned long long>(options.stop_after_events));
    }
    if (total.checkpoints_written > 0) {
      std::fprintf(stderr, "gt_replay: %llu checkpoint(s) -> %s\n",
                   static_cast<unsigned long long>(total.checkpoints_written),
                   options.checkpoint_path.c_str());
    }
    if (chaos_enabled || resilience_enabled) {
      std::fprintf(stderr, "gt_replay: faults: %s\n",
                   total.telemetry.ToString().c_str());
    }
  }
  if (telemetry != nullptr) {
    const auto stages = telemetry->MergedStageHistograms();
    std::vector<std::pair<std::string, const LatencyHistogram*>> rows;
    for (size_t i = 0; i < kReplayStageCount; ++i) {
      rows.emplace_back(
          std::string(ReplayStageName(static_cast<ReplayStage>(i))),
          &stages[i]);
    }
    const std::string table = PercentileTable("stage", rows);
    std::fprintf(stderr, "gt_replay: sampled stage spans (1 in %u events):\n%s",
                 telemetry->sample_every(), table.c_str());
    if (snapshotter.has_value()) {
      const std::string dest =
          telemetry_out == "-" ? std::string("stderr") : telemetry_out;
      std::fprintf(stderr, "gt_replay: %llu telemetry snapshot(s) -> %s\n",
                   static_cast<unsigned long long>(
                       snapshotter->snapshots_emitted()),
                   dest.c_str());
    }
  }

  if (find_capacity) {
    if (!capacity_concluded.load(std::memory_order_acquire)) {
      std::fprintf(stderr,
                   "gt_replay: capacity search ran out of stream before "
                   "concluding — artifact marked incomplete; use a longer "
                   "input or smaller --capacity-window-ms\n");
    }
    const std::string sut = !tcp_spec.empty() ? "tcp:" + tcp_spec
                            : !out_prefix.empty() ? "file"
                                                  : "stdout";
    const FrontierArtifact artifact = FrontierFromSearch(*search, sut, in);
    std::fprintf(stderr, "%s", FormatFrontierTable(artifact).c_str());
    std::fprintf(stderr,
                 "gt_replay: sustainable rate %.0f ev/s (offered %.0f) "
                 "under p99 SLO %.1f ms after %zu step(s)%s\n",
                 artifact.sustainable_rate_eps,
                 artifact.sustainable_offered_eps, artifact.slo_p99_ms,
                 artifact.step_schedule.size(),
                 artifact.complete ? "" : " (did not converge)");
    if (!frontier_out.empty()) {
      std::FILE* f = std::fopen(frontier_out.c_str(), "w");
      if (f == nullptr) {
        return Fail(Status::IoError("cannot create " + frontier_out));
      }
      const std::string json = artifact.ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::fprintf(stderr, "gt_replay: frontier artifact -> %s\n",
                   frontier_out.c_str());
    }
  }

  const std::string marker_log = flags.GetString("marker-log", "");
  if (!marker_log.empty() && stats.ok()) {
    std::FILE* f = std::fopen(marker_log.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IoError("cannot create " + marker_log));
    }
    WallClock wall;
    const Timestamp now_wall = wall.Now();
    MonotonicClock mono;
    const Timestamp now_mono = mono.Now();
    const ReplayStats& total = stats->aggregate;
    for (const MarkerRecord& m : total.marker_log) {
      // Rebase monotonic marker times onto the wall clock so logs from
      // different machines merge (§4.1: synchronized wall clocks).
      const Timestamp wall_time = now_wall - (now_mono - m.time);
      LogRecord record{wall_time, "replayer", "marker_sent", 1.0, m.label};
      std::fprintf(f, "%s\n", record.ToCsvLine().c_str());
    }
    // Fault telemetry as end-of-run records, mergeable by the collector.
    const SinkTelemetry& t = total.telemetry;
    const std::vector<std::pair<std::string, double>> telemetry_metrics = {
        {"delivery_retries", static_cast<double>(t.retries)},
        {"delivery_reconnects", static_cast<double>(t.reconnects)},
        {"delivery_drops_after_retry",
         static_cast<double>(t.drops_after_retry)},
        {"delivery_giveups", static_cast<double>(t.giveups)},
        {"delivery_backoff_s", t.backoff_s},
        {"chaos_injected_failures", static_cast<double>(t.injected_failures)},
        {"chaos_injected_disconnects",
         static_cast<double>(t.injected_disconnects)},
        {"chaos_stall_s", t.stall_s},
    };
    for (const auto& [metric, value] : telemetry_metrics) {
      LogRecord record{now_wall, "replayer", metric, value, ""};
      std::fprintf(f, "%s\n", record.ToCsvLine().c_str());
    }
    std::fclose(f);
    std::fprintf(stderr, "gt_replay: %zu marker + %zu telemetry records -> %s\n",
                 total.marker_log.size(), telemetry_metrics.size(),
                 marker_log.c_str());
  }
  return 0;
}
