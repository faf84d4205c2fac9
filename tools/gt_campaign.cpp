// gt_campaign — campaign supervision demo and smoke-drill (§4.5: an n ≥ 30
// campaign must run unattended; one wedged system under test must neither
// stall the campaign nor poison its confidence intervals).
//
// Runs a campaign of SimProcess-backed runs. Selected run slots are forced
// to hang: the simulated SUT is killed mid-run, its progress counter
// freezes, the RunWatchdog detects the stall and cancels the attempt, and
// the CampaignSupervisor retries it with a fresh derived seed. The final
// report shows requested vs effective n and the completed/retried/hung
// accounting. Each completed attempt also prints a live progress line to
// stderr (events, apply-cost p50/p99 from the shared latency histogram,
// virtual throughput) so long campaigns are observable while they run.
//
// Crash drill (--crash-runs + --auto-resume): selected slots crash midway
// through their first attempts, leaving a simulated checkpoint behind.
// With --auto-resume the supervisor relaunches the slot as a resume of the
// same logical run (same seed), the runner continues from the checkpointed
// event count, and the report separates resumed slots from retried/
// quarantined ones and prints downtime + MTTR.
//
// Frontier mode (--frontier): per-SUT closed-loop capacity sweeps
// (DESIGN.md §16). For each named simulated SUT the campaign runs an
// adaptive CapacitySearch over full seeded workload replays, tops every
// visited rate up to --repetitions measurements, and writes a
// gt-frontier-v1 artifact (sustainable-rate point + latency-vs-throughput
// curve with CI95 bands). Deterministic in --seed: two runs with the same
// seed produce bit-identical artifacts.
//
// Usage:
//   gt_campaign --runs 10 --hang-runs 3,7 --deadline-ms 300
//   gt_campaign --runs 10 --crash-runs 2,5 --auto-resume
//   gt_campaign --frontier --sut weaverlite,chronolite --workload social
//       --slo-p99-ms 100 --repetitions 3 --frontier-out frontier.json
//
// Flags:
//   --runs N             run slots in the campaign (default 10)
//   --events N           simulated events per run (default 200)
//   --hang-runs LIST     comma-separated 1-based run numbers to wedge
//   --hang-attempts K    wedge the first K attempts of each hang run
//                        (default 1; raise past --retry-budget to force a
//                        quarantine)
//   --crash-runs LIST    comma-separated 1-based run numbers that crash
//                        mid-run (leaving a checkpoint)
//   --crash-attempts K   crash the first K attempts of each crash run
//                        (default 1)
//   --auto-resume        resume crashed slots from their checkpoint with
//                        the attempt-0 seed instead of rerunning fresh
//   --deadline-ms M      watchdog no-progress deadline (default 300)
//   --retry-budget N     extra attempts per run slot (default 2)
//   --quarantine-after N exhausted slots before quarantine (default 1)
//   --seed S             base seed (default 42)
//
// Exit code 0 when every run slot eventually completed, 2 otherwise.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/string_util.h"
#include "harness/campaign.h"
#include "harness/capacity/frontier.h"
#include "harness/capacity/frontier_sweep.h"
#include "harness/telemetry/latency_histogram.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "suite/benchmark_suite.h"
#include "suite/connectors/online_connector.h"
#include "suite/connectors/weaver_connector.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_campaign: %s\n", status.ToString().c_str());
  return 1;
}

Result<ConnectorFactory> ConnectorFor(const std::string& sut) {
  if (sut == "weaverlite") {
    return ConnectorFactory([](Simulator* sim) {
      return std::make_unique<WeaverConnector>(sim, WeaverConnectorOptions{});
    });
  }
  if (sut == "chronolite") {
    return ConnectorFactory([](Simulator* sim) {
      return std::make_unique<OnlineConnector>(sim, ChronoLiteOptions{});
    });
  }
  return Status::InvalidArgument("unknown --sut '" + sut +
                                 "' (weaverlite, chronolite)");
}

/// Per-SUT output path: a single SUT writes to `base` verbatim; several
/// insert the SUT name before the extension.
std::string FrontierPathFor(const std::string& base, const std::string& sut,
                            size_t num_suts) {
  if (num_suts == 1) return base;
  const size_t dot = base.rfind('.');
  if (dot == std::string::npos) return base + "." + sut;
  return base.substr(0, dot) + "." + sut + base.substr(dot);
}

/// The --frontier mode's own flags (the sweep knobs bind into `sweep`).
struct FrontierFlags {
  std::string suts = "weaverlite";
  std::string workload = "social";
  std::string size = "small";
  std::string out_path;
  double max_duration_s = 600.0;
};

int RunFrontierMode(const FrontierFlags& flags, FrontierSweepOptions sweep) {
  const std::string& workload_name = flags.workload;
  const std::string& size_name = flags.size;
  sweep.case_options.max_duration = Duration::FromSeconds(flags.max_duration_s);

  SuiteSize size;
  if (size_name == "tiny") {
    size = SuiteSize::kTiny;
  } else if (size_name == "small") {
    size = SuiteSize::kSmall;
  } else if (size_name == "medium") {
    size = SuiteSize::kMedium;
  } else if (size_name == "large") {
    size = SuiteSize::kLarge;
  } else {
    return Fail(Status::InvalidArgument("unknown --size '" + size_name +
                                        "' (tiny, small, medium, large)"));
  }

  const SeededWorkloadFactory workload_for =
      [&](uint64_t workload_seed) -> Result<SuiteWorkload> {
    for (SuiteWorkload& w : StandardWorkloads(size, workload_seed)) {
      if (w.name == workload_name) return std::move(w);
    }
    return Status::InvalidArgument("unknown --workload '" + workload_name +
                                   "' (social, ddos, blockchain, mix)");
  };

  std::vector<std::string> suts;
  for (std::string_view part : SplitString(flags.suts, ',')) {
    if (!part.empty()) suts.emplace_back(part);
  }
  bool all_ok = true;
  for (const std::string& sut : suts) {
    auto factory = ConnectorFor(sut);
    if (!factory.ok()) return Fail(factory.status());

    std::fprintf(stderr,
                 "gt_campaign: frontier sweep: sut=%s workload=%s "
                 "slo p99 %.1f ms, seed %llu\n",
                 sut.c_str(), workload_name.c_str(), sweep.search.slo_p99_ms,
                 static_cast<unsigned long long>(sweep.search.seed));
    auto artifact = RunFrontierSweep(sut, workload_for, *factory, sweep);
    if (!artifact.ok()) return Fail(artifact.status());

    std::printf("%s", FormatFrontierTable(*artifact).c_str());
    if (Status st = ValidateFrontier(*artifact); !st.ok()) {
      std::fprintf(stderr, "gt_campaign: frontier invalid: %s\n",
                   st.ToString().c_str());
      all_ok = false;
    }
    if (!artifact->complete) {
      std::fprintf(stderr,
                   "gt_campaign: sweep for %s did not converge "
                   "(raise --max-steps or --max-rate)\n",
                   sut.c_str());
      all_ok = false;
    }
    if (!flags.out_path.empty()) {
      const std::string path =
          FrontierPathFor(flags.out_path, sut, suts.size());
      std::ofstream out(path, std::ios::trunc);
      out << artifact->ToJson() << "\n";
      if (!out.good()) {
        return Fail(Status::IoError("cannot write " + path));
      }
      std::fprintf(stderr, "gt_campaign: wrote %s\n", path.c_str());
    }
  }
  return all_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A flag's default is what its destination holds before parsing.
  CampaignOptions options;
  options.experiment.repetitions = 10;
  options.watchdog.stall_deadline = Duration::FromMillis(300);
  uint64_t total_events = 200;
  uint64_t wedge_attempts = 1;
  uint64_t crash_attempt_count = 1;
  std::string hang_runs_spec;
  std::string crash_runs_spec;
  bool frontier = false;
  FrontierFlags frontier_flags;
  FrontierSweepOptions sweep;
  sweep.search.max_rate_eps = 1e6;
  sweep.search.windows_per_step = 1;
  sweep.search.confirm_violations = 1;
  FlagTable flags("gt_campaign");
  flags.Add("runs", &options.experiment.repetitions);
  flags.Add("events", &total_events);
  flags.Add("hang-runs", &hang_runs_spec);
  flags.Add("hang-attempts", &wedge_attempts);
  flags.Add("crash-runs", &crash_runs_spec);
  flags.Add("crash-attempts", &crash_attempt_count);
  flags.Add("auto-resume", &options.auto_resume);
  flags.AddMillis("deadline-ms", &options.watchdog.stall_deadline);
  flags.Add("retry-budget", &options.retry_budget);
  flags.Add("quarantine-after", &options.quarantine_after);
  flags.Add("seed", &options.experiment.base_seed);
  flags.Add("frontier", &frontier);
  flags.Add("sut", &frontier_flags.suts);
  flags.Add("workload", &frontier_flags.workload);
  flags.Add("size", &frontier_flags.size);
  flags.Add("slo-p99-ms", &sweep.search.slo_p99_ms);
  flags.Add("repetitions", &sweep.repetitions);
  flags.Add("frontier-out", &frontier_flags.out_path);
  flags.Add("start-rate", &sweep.search.start_rate_eps);
  flags.Add("max-rate", &sweep.search.max_rate_eps);
  flags.Add("growth", &sweep.search.growth);
  flags.Add("resolution", &sweep.search.resolution);
  flags.Add("windows", &sweep.search.windows_per_step);
  flags.Add("confirm", &sweep.search.confirm_violations);
  flags.Add("max-steps", &sweep.search.max_steps);
  flags.Add("max-duration-s", &frontier_flags.max_duration_s);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;
  if (frontier) {
    sweep.search.seed = options.experiment.base_seed;
    return RunFrontierMode(frontier_flags, sweep);
  }

  const size_t runs = options.experiment.repetitions;
  if (runs == 0 || total_events == 0 ||
      options.watchdog.stall_deadline <= Duration::Zero()) {
    return Fail(Status::InvalidArgument(
        "--runs, --events, and --deadline-ms must be positive"));
  }

  auto parse_run_list = [&](const char* flag_name, const std::string& spec,
                            std::set<uint64_t>* out) -> Status {
    for (const auto& part : SplitString(spec, ',')) {
      if (part.empty()) continue;
      auto n = ParseUint64(part);
      if (!n.ok()) {
        return n.status().WithContext(std::string("--") + flag_name);
      }
      if (*n == 0 || *n > runs) {
        return Status::InvalidArgument(std::string("--") + flag_name +
                                       " entries must be in 1..--runs");
      }
      out->insert(*n);
    }
    return Status::OK();
  };
  std::set<uint64_t> hang_runs;
  std::set<uint64_t> crash_runs;
  if (Status st = parse_run_list("hang-runs", hang_runs_spec, &hang_runs);
      !st.ok()) {
    return Fail(st);
  }
  if (Status st = parse_run_list("crash-runs", crash_runs_spec, &crash_runs);
      !st.ok()) {
    return Fail(st);
  }

  // Per-slot simulated checkpoints: the event count a crashing run had
  // durably applied before dying. Slots only touch their own entry.
  std::vector<uint64_t> checkpoints(runs, 0);

  std::printf(
      "gt_campaign: %zu run(s), %zu forced hang(s), %zu forced crash(es)%s, "
      "deadline %lld ms, retry budget %zu\n",
      runs, hang_runs.size(), crash_runs.size(),
      options.auto_resume ? " (auto-resume)" : "",
      static_cast<long long>(options.watchdog.stall_deadline.millis()),
      options.retry_budget);

  CampaignSupervisor supervisor({}, options);
  auto report = supervisor.Run(
      [&](const ExperimentConfig&, const RunContext& ctx)
          -> Result<RunOutcome> {
        Simulator sim;
        SimProcess sut(&sim, "sut");
        Rng rng(ctx.seed);
        // Wedge the configured slots on their first attempts: the SUT is
        // killed halfway, completions stop, and the progress heartbeat
        // freezes until the watchdog cancels us.
        const bool wedge = hang_runs.contains(ctx.run_index + 1) &&
                           ctx.attempt < wedge_attempts;
        const uint64_t stall_after = wedge ? total_events / 2 : total_events;
        // Crash drill: die two-thirds in, leaving a checkpoint at the last
        // 50-event boundary — the supervisor's resume continues from it.
        const bool crash = crash_runs.contains(ctx.run_index + 1) &&
                           ctx.attempt < crash_attempt_count;
        const uint64_t crash_after = (2 * total_events) / 3;
        uint64_t applied = ctx.resume ? checkpoints[ctx.run_index] : 0;
        bool crashed = false;
        LatencyHistogram apply_costs;

        std::function<void()> submit_next = [&] {
          const double cost_ms = 0.5 + rng.NextDouble();
          const Duration cost =
              Duration::FromNanos(static_cast<int64_t>(cost_ms * 1e6));
          apply_costs.Record(cost);
          sut.Submit(cost, [&] {
            ++applied;
            if (wedge && applied >= stall_after) {
              sut.Kill();
              return;
            }
            if (crash && applied >= crash_after) {
              crashed = true;
              return;
            }
            if (applied < total_events) submit_next();
          });
        };
        submit_next();

        // Drive the simulator from wall clock so a wedged SUT shows up as
        // real-time stalling, exactly like an external system under test.
        while (applied < total_events) {
          if (crashed) {
            checkpoints[ctx.run_index] = applied - (applied % 50);
            return Status::IoError(
                "simulated crash after " + std::to_string(applied) +
                " events (checkpoint at " +
                std::to_string(checkpoints[ctx.run_index]) + ")");
          }
          if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
            return Status::Cancelled(ctx.cancel->reason());
          }
          if (!sim.Step()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          if (ctx.report_progress) ctx.report_progress(applied);
        }

        // Live per-run progress line so an unattended n >= 30 campaign is
        // observable while it runs, not only from the final report.
        std::fprintf(stderr,
                     "gt_campaign: run %zu/%zu attempt %zu done: %llu "
                     "events, apply cost p50 %.2f ms p99 %.2f ms, "
                     "%.0f ev/virtual-s\n",
                     ctx.run_index + 1, runs,
                     ctx.attempt,
                     static_cast<unsigned long long>(total_events),
                     apply_costs.ValueAtQuantileMicros(0.5) / 1e3,
                     apply_costs.ValueAtQuantileMicros(0.99) / 1e3,
                     static_cast<double>(total_events) / sim.Now().seconds());

        RunOutcome out;
        out["virtual_s"] = sim.Now().seconds();
        out["events_per_virtual_s"] =
            static_cast<double>(total_events) / sim.Now().seconds();
        out["apply_cost_p50_ms"] = apply_costs.ValueAtQuantileMicros(0.5) / 1e3;
        out["apply_cost_p99_ms"] =
            apply_costs.ValueAtQuantileMicros(0.99) / 1e3;
        // A resumed attempt is a replacement identity adopting the slot
        // from its checkpoint — the single-box analogue of a shard range
        // reassigned to a respawned worker. Reserved key, routed into the
        // report's recovery accounting rather than the metric CIs.
        if (ctx.resume) out[std::string(kReassignmentsKey)] = 1.0;
        return out;
      });
  if (!report.ok()) return Fail(report.status());

  for (const AttemptRecord& a : report->attempts) {
    if (a.outcome == AttemptOutcome::kCompleted && a.attempt == 0) continue;
    std::printf("  run %zu attempt %zu%s (seed %llu): %s%s%s\n",
                a.run_index + 1, a.attempt, a.resume ? " (resume)" : "",
                static_cast<unsigned long long>(a.seed),
                std::string(AttemptOutcomeName(a.outcome)).c_str(),
                a.detail.empty() ? "" : " — ", a.detail.c_str());
  }
  std::printf("%s", FormatCampaignReport(*report).c_str());
  std::printf(
      "gt_campaign: %zu completed, %zu hung, %zu failed, %zu retried, "
      "%zu resumed, %zu quarantined config(s)\n",
      report->total_completed, report->total_hung, report->total_failed,
      report->total_retried, report->total_resumed,
      report->quarantined_configs);
  if (report->total_recoveries > 0) {
    std::printf(
        "gt_campaign: %zu recover(ies), %llu reassignment(s), %.3f s total "
        "downtime, MTTR %.3f s\n",
        report->total_recoveries,
        static_cast<unsigned long long>(report->total_reassignments),
        report->total_downtime_s,
        report->total_downtime_s /
            static_cast<double>(report->total_recoveries));
  }

  const bool all_slots_completed =
      report->total_completed == runs &&
      report->quarantined_configs == 0;
  return all_slots_completed ? 0 : 2;
}
