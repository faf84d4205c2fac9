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
//   --wire-format F        csv (default) | v2 — sink wire format: pipe,
//                          file and TCP transports carry sealed
//                          gt-stream-v2 blocks. Rejected together with
//                          decorated sinks (--chaos-*, --retry-*,
//                          --deliver-timeout-ms, --on-failure, fault-plan
//                          fail= points), which carry only CSV, with
//                          --resume-from and with checkpointed --out runs
//                          (a resume truncates sink files and would
//                          re-emit the v2 preamble).
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
//   --chaos-disconnect P   per-attempt forced-disconnect probability;
//                          needs --tcp (rejected without it)
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
// latency SLO. A CapacityController (harness/capacity/) runs the search
// (geometric bracketing, then bisection refinement) against windowed
// deltas of the live telemetry hub, retargeting the emitter lanes in place
// — RateController::Retarget re-anchors the pacing schedule, so a rate
// change never produces a catch-up burst. When the search concludes it
// stops the replay; that stop is the success path of the run.
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
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_plan.h"
#include "common/flags.h"
#include "distributed/worker.h"
#include "faults/chaos_sink.h"
#include "harness/capacity/capacity_controller.h"
#include "harness/log_record.h"
#include "harness/report.h"
#include "harness/run_watchdog.h"
#include "harness/telemetry/run_telemetry.h"
#include "harness/telemetry/snapshotter.h"
#include "replayer/checkpoint.h"
#include "replayer/lane_outputs.h"
#include "replayer/replay_config.h"
#include "replayer/resilient_sink.h"
#include "replayer/sharded_replayer.h"
#include "replayer/tcp.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_replay: %s\n", status.ToString().c_str());
  return 1;
}

// --worker: hand this process to a coordinator as a distributed replay
// worker. All replay parameters (stream, range, rate, checkpointing,
// output) arrive over the control channel in ASSIGN frames.
int RunWorkerMode(const std::string& coordinator_spec,
                  ReplayWorkerOptions options) {
  if (coordinator_spec.empty()) {
    return Fail(
        Status::InvalidArgument("--worker requires --coordinator HOST:PORT"));
  }
  auto coordinator = ParseHostPort(coordinator_spec, "coordinator");
  if (!coordinator.ok()) return Fail(coordinator.status());
  options.coordinator_host = coordinator->host;
  options.coordinator_port = coordinator->port;

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
  // A flag's default is what its destination holds before parsing.
  std::string in;
  std::string wire_name = "csv";
  std::string tcp_spec;
  std::string out_prefix;
  std::string resume_from;
  std::string marker_log;
  std::string on_failure = "fail";
  std::string crash_at;
  std::string fault_plan_spec;
  std::string telemetry_out;
  std::string signal_name = "auto";
  std::string frontier_out;
  std::string coordinator_spec;
  bool ignore_controls = false;
  bool find_capacity = false;
  bool worker_mode = false;
  int connect_timeout_ms = 0;
  int connect_attempts = 1;
  ShardedReplayerOptions options;
  options.total_rate_eps = 1000.0;
  ChaosOptions chaos_options;
  ResilientSinkOptions resilient_options;
  WatchdogOptions watchdog_options;
  watchdog_options.stall_deadline = Duration::Zero();  // no watchdog
  RunTelemetryOptions telemetry_options;
  SnapshotterOptions snapshot_options;
  CapacityControllerOptions capacity_options;
  capacity_options.search.max_rate_eps = 1e6;
  ReplayWorkerOptions worker_options;

  FlagTable flags("gt_replay");
  flags.Add("in", &in);
  flags.Add("wire-format", &wire_name);
  flags.Add("rate", &options.total_rate_eps);
  flags.Add("shards", &options.shards);
  flags.Add("tcp", &tcp_spec);
  flags.Add("connect-timeout-ms", &connect_timeout_ms);
  flags.Add("connect-attempts", &connect_attempts);
  flags.Add("ignore-controls", &ignore_controls);
  flags.Add("marker-log", &marker_log);
  flags.Add("chaos-seed", &chaos_options.seed);
  flags.Add("chaos-fail", &chaos_options.fail_probability);
  flags.Add("chaos-disconnect", &chaos_options.disconnect_probability);
  flags.Add("chaos-stall", &chaos_options.stall_probability);
  flags.AddMillis("chaos-stall-ms", &chaos_options.stall);
  flags.Add("retry-budget", &resilient_options.retry_budget);
  flags.AddMillis("retry-backoff-ms", &resilient_options.initial_backoff);
  flags.AddMillis("deliver-timeout-ms", &resilient_options.deliver_timeout);
  flags.Add("on-failure", &on_failure);
  flags.Add("out", &out_prefix);
  flags.Add("checkpoint-file", &options.checkpoint_path);
  flags.Add("checkpoint-every", &options.checkpoint_every);
  flags.Add("checkpoint-generations", &options.checkpoint_generations);
  flags.Add("resume-from", &resume_from);
  flags.Add("stop-after", &options.stop_after_events);
  flags.AddMillis("watchdog-ms", &watchdog_options.stall_deadline);
  flags.Add("crash-at", &crash_at);
  flags.Add("fault-plan", &fault_plan_spec);
  flags.Add("telemetry-out", &telemetry_out);
  flags.AddMillis("telemetry-period-ms", &snapshot_options.period);
  flags.Add("telemetry-sample", &telemetry_options.sample_every);
  flags.Add("find-capacity", &find_capacity);
  flags.Add("slo-p99-ms", &capacity_options.search.slo_p99_ms);
  flags.Add("capacity-start-rate", &capacity_options.search.start_rate_eps);
  flags.Add("capacity-max-rate", &capacity_options.search.max_rate_eps);
  flags.Add("capacity-growth", &capacity_options.search.growth);
  flags.Add("capacity-resolution", &capacity_options.search.resolution);
  flags.AddMillis("capacity-warmup-ms", &capacity_options.warmup);
  flags.AddMillis("capacity-window-ms", &capacity_options.window);
  flags.Add("capacity-windows", &capacity_options.search.windows_per_step);
  flags.Add("capacity-confirm", &capacity_options.search.confirm_violations);
  flags.Add("capacity-max-steps", &capacity_options.search.max_steps);
  flags.Add("capacity-signal", &signal_name);
  flags.Add("frontier-out", &frontier_out);
  flags.Add("worker", &worker_mode);
  flags.Add("coordinator", &coordinator_spec);
  flags.Add("worker-id", &worker_options.worker_id);
  flags.Add("dial-attempts", &worker_options.dial_attempts);
  flags.Add("heartbeat-ms", &worker_options.heartbeat_interval_ms);
  flags.Add("epoch-wait-ms", &worker_options.epoch_wait_timeout_ms);
  flags.Add("backoff-seed", &worker_options.backoff_seed);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (Status st = ValidateReplayHarness({
          .telemetry_period = snapshot_options.period,
          .telemetry_sample = telemetry_options.sample_every,
          .watchdog = watchdog_options.stall_deadline,
          .chaos_stall = chaos_options.stall,
      });
      !st.ok()) {
    return Fail(st);
  }

  // Scripted process faults: environment first (GT_FAULT_PLAN / GT_CRASH_AT
  // — how a supervisor arms a child without touching its argv), then the
  // explicit flags on top.
  FaultPlan& fault_plan = FaultPlan::Global();
  if (Status st = fault_plan.ConfigureFromFlags(fault_plan_spec, crash_at);
      !st.ok()) {
    return Fail(st);
  }
  if (worker_mode) {
    // A worker dials with a 2 s deadline unless told otherwise.
    if (flags.Given("connect-timeout-ms")) {
      worker_options.connect_timeout_ms = connect_timeout_ms;
    }
    return RunWorkerMode(coordinator_spec, worker_options);
  }

  if (in.empty()) return Fail(Status::InvalidArgument("--in is required"));
  if (wire_name != "csv" && wire_name != "v2") {
    return Fail(
        Status::InvalidArgument("unknown --wire-format: " + wire_name));
  }
  const bool v2_wire = wire_name == "v2";

  // Closed-loop capacity search. The controller itself is built later,
  // once the telemetry hub exists.
  if (!flags.Given("capacity-start-rate")) {
    capacity_options.search.start_rate_eps = options.total_rate_eps;
  }
  if (signal_name == "marker") {
    capacity_options.signal = CapacityProbe::Signal::kMarker;
  } else if (signal_name == "deliver") {
    capacity_options.signal = CapacityProbe::Signal::kDeliver;
  } else if (signal_name != "auto") {
    return Fail(
        Status::InvalidArgument("unknown --capacity-signal: " + signal_name));
  }

  const bool chaos_enabled =
      flags.Given("chaos-fail") || flags.Given("chaos-disconnect") ||
      flags.Given("chaos-stall") || !fault_plan.delivery_fail_points().empty();
  const bool resilience_enabled =
      chaos_enabled || flags.Given("retry-budget") ||
      flags.Given("retry-backoff-ms") || flags.Given("deliver-timeout-ms") ||
      flags.Given("on-failure");
  // Deterministic per-attempt fail points from the fault plan unify with
  // the probabilistic chaos schedule.
  chaos_options.fail_points = fault_plan.delivery_fail_points();
  auto policy = ParseDegradationPolicy(on_failure);
  if (!policy.ok()) return Fail(policy.status());
  resilient_options.policy = *policy;

  CancellationToken cancel;
  const size_t shards = options.shards;
  options.wire_format = v2_wire ? WireFormat::kV2 : WireFormat::kCsv;
  options.honor_control_events = !ignore_controls;
  options.cancel = &cancel;
  // File-backed output is the byte-exactness contract: checkpoints flush
  // the sinks and record per-shard byte offsets.
  options.record_sink_bytes = !out_prefix.empty();

  HostPort tcp_endpoint;
  if (!tcp_spec.empty()) {
    auto parsed = ParseHostPort(tcp_spec, "tcp");
    if (!parsed.ok()) return Fail(parsed.status());
    tcp_endpoint = *parsed;
  }
  ReplaySinkPlan sink_plan;
  sink_plan.tcp = !tcp_spec.empty();
  sink_plan.files = !out_prefix.empty();
  sink_plan.decorated = chaos_enabled || resilience_enabled;
  sink_plan.chaos_disconnect = chaos_options.disconnect_probability > 0.0;
  sink_plan.resume = !resume_from.empty();
  if (Status st = ValidateReplayConfig(options, sink_plan); !st.ok()) {
    return Fail(st);
  }
  if (find_capacity) {
    if (Status st = ValidateCapacityOptions(capacity_options); !st.ok()) {
      return Fail(st);
    }
  }

  // Resume: load the newest good checkpoint generation BEFORE the sinks
  // are built — file-backed output must be truncated to the checkpointed
  // byte offsets before it reopens for append.
  std::optional<ReplayCheckpoint> resume;
  size_t resume_fallbacks = 0;
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

  // --out PREFIX: per-shard output files, the deterministic alternative to
  // interleaved stdout — required for byte-exact kill–resume comparison.
  std::optional<LaneOutputs> out_files;
  if (!out_prefix.empty()) {
    std::vector<std::string> paths;
    for (size_t s = 0; s < shards; ++s) {
      paths.push_back(LaneOutputPath(out_prefix, s, shards));
    }
    auto opened = OpenLaneOutputs(paths, resume ? &*resume : nullptr);
    if (!opened.ok()) return Fail(opened.status());
    out_files.emplace(std::move(*opened));
  }

  // Sink chain, one per shard: transport -> [ChaosSink] -> [ResilientSink].
  // With --shards 1 this degenerates to the classic single chain; with
  // N > 1, each lane gets its own transport (own TCP connection, own
  // --out file, or a PipeSink sharing stdout — serialized batches keep
  // lines atomic) and its own chaos schedule (seed + shard) and retry
  // state.
  std::vector<std::unique_ptr<TcpSink>> tcp_sinks;
  std::vector<std::unique_ptr<PipeSink>> stdout_sinks;
  std::vector<std::unique_ptr<ChaosSink>> chaos_sinks;
  std::vector<std::unique_ptr<ResilientSink>> resilient_sinks;
  std::vector<EventSink*> lane_sinks;
  for (size_t s = 0; s < shards; ++s) {
    EventSink* sink = nullptr;
    TcpSink* tcp = nullptr;
    if (!tcp_spec.empty()) {
      tcp_sinks.push_back(std::make_unique<TcpSink>());
      tcp = tcp_sinks.back().get();
      tcp->set_connect_timeout_ms(connect_timeout_ms);
      tcp->set_connect_attempts(connect_attempts);
      if (Status st = tcp->Connect(tcp_endpoint.host, tcp_endpoint.port);
          !st.ok()) {
        return Fail(st.WithContext("shard " + std::to_string(s)));
      }
      if (v2_wire) tcp->EnableV2Wire();
      sink = tcp;
    } else {
      PipeSink* pipe = nullptr;
      if (out_files.has_value()) {
        pipe = out_files->sink(s);
      } else {
        stdout_sinks.push_back(std::make_unique<PipeSink>(stdout));
        pipe = stdout_sinks.back().get();
      }
      if (v2_wire) pipe->EnableV2Wire();
      sink = pipe;
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

  // Live telemetry: hub + background JSONL snapshotter.
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
    telemetry_options.shards = shards;
    telemetry = std::make_unique<RunTelemetry>(telemetry_options);
  }
  if (!telemetry_out.empty()) {
    if (telemetry_out == "-") {
      snapshot_options.out = stderr;
    } else {
      telemetry_file = std::fopen(telemetry_out.c_str(), "w");
      if (telemetry_file == nullptr) {
        return Fail(Status::IoError("cannot create " + telemetry_out));
      }
      snapshot_options.out = telemetry_file;
    }
    snapshotter.emplace(telemetry.get(), snapshot_options);
  }
  if (telemetry != nullptr && resume.has_value()) {
    RecoveryCounters rec;
    rec.resumes = 1;
    rec.checkpoint_fallbacks = resume_fallbacks;
    telemetry->UpdateRecoveryCounters(rec);
  }

  // Closed-loop capacity search: the controller retargets the lanes
  // through the rate it publishes and ends the replay once it concludes.
  MonotonicClock capacity_clock;
  std::optional<CapacityController> capacity;
  if (find_capacity) {
    capacity.emplace(capacity_options, telemetry.get(), &capacity_clock);
    options.total_rate_eps = capacity_options.search.start_rate_eps;
    options.rate_target_eps = capacity->rate_target();
  }
  options.telemetry = telemetry.get();
  ShardedReplayer replayer(options);

  RunWatchdog watchdog(watchdog_options);
  if (watchdog_options.stall_deadline > Duration::Zero()) {
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

  if (capacity.has_value()) capacity->Start(&cancel);
  if (snapshotter.has_value()) snapshotter->Start();
  Result<ShardedReplayStats> stats =
      replayer.ReplayFile(in, lane_sinks, resume ? &*resume : nullptr);
  watchdog.Disarm();
  if (capacity.has_value()) capacity->Stop();
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
  out_files.reset();
  if (fault_plan.write_faults_fired() > 0) {
    std::fprintf(stderr, "gt_replay: %llu scripted write fault(s) fired\n",
                 static_cast<unsigned long long>(
                     fault_plan.write_faults_fired()));
  }
  // A cancellation raised by the concluded capacity search is this mode's
  // normal end of run, not a failure.
  const bool capacity_stopped_replay =
      capacity.has_value() && capacity->concluded() && !stats.ok() &&
      stats.status().IsCancelled();
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

  if (capacity.has_value()) {
    if (!capacity->concluded()) {
      std::fprintf(stderr,
                   "gt_replay: capacity search ran out of stream before "
                   "concluding — artifact marked incomplete; use a longer "
                   "input or smaller --capacity-window-ms\n");
    }
    const std::string sut = !tcp_spec.empty() ? "tcp:" + tcp_spec
                            : !out_prefix.empty() ? "file"
                                                  : "stdout";
    const FrontierArtifact artifact = capacity->Artifact(sut, in);
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
