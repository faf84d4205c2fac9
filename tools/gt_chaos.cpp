// gt_chaos — kill–resume equivalence harness for the crash-consistency
// layer.
//
// Proves, with real processes and real SIGKILLs, that a replay interrupted
// at arbitrary points and auto-resumed from its last good checkpoint
// delivers the exact same byte stream as an uninterrupted run:
//
//   1. Runs one uninterrupted golden `gt_replay --out` run.
//   2. For every named crash point (and, with --random-kills K, K
//      randomized crash positions derived from --seed), runs a child
//      gt_replay armed via GT_CRASH_AT so it SIGKILLs itself mid-run.
//   3. Supervises the child: while it dies by signal and the resume budget
//      lasts, relaunches it with --resume-from (or from scratch when no
//      checkpoint was published before the kill).
//   4. Byte-compares every per-shard output file against the golden run;
//      the first mismatching offset is reported with hex context and
//      written to --diff-out.
//
// Exit code 0 iff every trial converged to a byte-identical stream.
//
// With --workers W the same drill runs against a distributed fleet:
// gt_coordinator plus W `gt_replay --worker` processes on localhost. Crash
// specs starting with "coord-" SIGKILL the coordinator (workers quiesce,
// checkpoint, and re-dial its respawn); every other spec arms worker 0
// (the coordinator reassigns its orphaned ranges to survivors). The merged
// per-shard fleet outputs must still be byte-identical to the
// single-process golden run.
//
// Usage:
//   gt_chaos --in stream.gts --shards 4 --random-kills 20
//   gt_chaos --generate 300 --model social --seed 7 --workdir /tmp/chaos
//   gt_chaos --shards 4 --workers 2 --workdir /tmp/fleet_chaos
//
// Flags:
//   --in FILE           stream file to replay (omit to generate one)
//   --generate N        rounds for the generated stream (default 200)
//   --model M           generator model (default social)
//   --seed S            seed for generation and random kill positions
//   --shards N          shard lanes (default 1)
//   --rate R            replay rate in events/s (default 1e6 — drills are
//                       about crash placement, not pacing)
//   --replayer PATH     gt_replay binary (default: sibling of gt_chaos)
//   --generator PATH    gt_generate binary (default: sibling of gt_chaos)
//   --crash-at LIST     comma list of POINT[:N] scripted trials; default is
//                       every compiled crash point (epoch-barrier only when
//                       --shards > 1)
//   --random-kills K    additional trials at K seeded random positions
//   --checkpoint-every N  checkpoint cadence in events (default 100)
//   --retry-budget N    resume attempts per trial (default 3)
//   --workdir DIR       scratch directory (default gt_chaos_work)
//   --diff-out FILE     mismatch report (default WORKDIR/diff.txt)
//   --workers W         distributed mode: coordinator + W workers
//                       (requires --shards >= 2; 0 = single-process)
//   --coordinator PATH  gt_coordinator binary (default: sibling)
//   --marker-interval N generated-stream marker cadence (default 100 in
//                       distributed mode so epoch trials have barriers
//                       to crash at, else 0)
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_plan.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "replayer/lane_outputs.h"
#include "replayer/replay_config.h"

using namespace graphtides;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "gt_chaos: %s\n", status.ToString().c_str());
  return 1;
}

/// Outcome of one supervised child process.
struct ChildExit {
  bool exited = false;  ///< normal exit (code in `code`)
  int code = -1;
  bool signaled = false;  ///< killed by signal (number in `sig`)
  int sig = 0;
};

ChildExit DecodeWait(int wstatus) {
  ChildExit out;
  if (WIFEXITED(wstatus)) {
    out.exited = true;
    out.code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    out.signaled = true;
    out.sig = WTERMSIG(wstatus);
  }
  return out;
}

/// fork+exec `args` (args[0] is the binary path) without waiting.
/// `crash_env` non-empty arms GT_CRASH_AT in the child; otherwise the
/// variable is scrubbed so a resumed attempt runs clean. Child stderr goes
/// to `log_path`.
Result<pid_t> SpawnChild(const std::vector<std::string>& args,
                         const std::string& crash_env,
                         const std::string& log_path) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    if (!log_path.empty()) {
      std::freopen(log_path.c_str(), "w", stderr);
    }
    if (crash_env.empty()) {
      ::unsetenv("GT_CRASH_AT");
    } else {
      ::setenv("GT_CRASH_AT", crash_env.c_str(), 1);
    }
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "gt_chaos: execv %s: %s\n", argv[0],
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

/// Non-blocking reap: nullopt while the child is still running.
std::optional<ChildExit> PollChild(pid_t pid) {
  int wstatus = 0;
  const pid_t r = ::waitpid(pid, &wstatus, WNOHANG);
  if (r <= 0) return std::nullopt;
  return DecodeWait(wstatus);
}

/// Spawn + blocking wait (the classic single-process trial path).
Result<ChildExit> RunChild(const std::vector<std::string>& args,
                           const std::string& crash_env,
                           const std::string& log_path) {
  GT_ASSIGN_OR_RETURN(const pid_t pid, SpawnChild(args, crash_env, log_path));
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) < 0) {
    return Status::IoError(std::string("waitpid: ") + std::strerror(errno));
  }
  return DecodeWait(wstatus);
}

std::string SiblingBinary(const char* argv0, const std::string& name) {
  const std::string self(argv0);
  const size_t slash = self.rfind('/');
  return slash == std::string::npos ? name : self.substr(0, slash + 1) + name;
}

Result<size_t> CountLines(const std::string& path) {
  std::ifstream file(path);
  if (!file.good()) return Status::IoError("cannot read " + path);
  size_t lines = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty()) ++lines;
  }
  return lines;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return Status::IoError("cannot read " + path);
  std::string data((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  return data;
}

/// First differing byte offset, or npos when identical (lengths included).
size_t FirstDiff(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? std::string::npos : n;
}

std::string HexContext(const std::string& data, size_t offset) {
  const size_t lo = offset >= 16 ? offset - 16 : 0;
  const size_t hi = std::min(data.size(), offset + 16);
  std::string out;
  char buf[8];
  for (size_t i = lo; i < hi; ++i) {
    std::snprintf(buf, sizeof(buf), i == offset ? "[%02x]" : "%02x ",
                  static_cast<unsigned char>(data[i]));
    out += buf;
  }
  return out;
}

struct Trial {
  std::string name;       ///< display label ("scripted post-delivery:250")
  std::string crash_env;  ///< GT_CRASH_AT value for attempt 0
};

/// What every trial's children run with, single-process or fleet.
struct DrillParams {
  std::string coordinator_bin;
  std::string replayer_bin;
  std::string stream;
  size_t shards = 1;   ///< global hash-partition width
  size_t workers = 0;  ///< fleet size; 0 = single process
  /// Aggregate replay rate in events/s — drills are about crash
  /// placement, not pacing.
  double rate = 1e6;
  uint64_t checkpoint_every = 100;
  uint64_t checkpoint_generations = 3;
  int retry_budget = 3;  ///< resumes (or respawns) per trial
};

/// Outcome of one supervised fleet trial.
struct FleetOutcome {
  bool converged = false;
  size_t crashes = 0;   ///< processes that died by signal
  std::string failure;  ///< non-empty when the trial failed outright
};

/// Runs gt_coordinator + W workers on localhost, arming one side with
/// `crash_env` (specs starting with "coord-" target the coordinator,
/// everything else worker 0), and respawns SIGKILLed processes until the
/// fleet drains or the respawn budget is spent. A killed worker's ranges
/// are reassigned by the coordinator; a killed coordinator is respawned on
/// the same port and rebuilds fleet state from the workers' re-HELLOs.
Result<FleetOutcome> RunFleetTrial(const DrillParams& p,
                                   const std::string& prefix,
                                   const std::string& crash_env) {
  FleetOutcome out;
  const bool coord_target = crash_env.rfind("coord-", 0) == 0;
  const std::string cp_prefix = prefix + ".cp";
  const std::string port_file = prefix + ".port";
  ::unlink(port_file.c_str());

  // Scrub stale outputs and per-range checkpoint generations; the range
  // split mirrors the coordinator's contiguous deal exactly.
  for (size_t s = 0; s < p.shards; ++s) {
    ::unlink(ShardOutputPath(prefix, s).c_str());
  }
  const size_t nranges = std::min(p.workers, p.shards);
  const size_t rbase = p.shards / nranges;
  const size_t rextra = p.shards % nranges;
  for (size_t r = 0, at = 0; r < nranges; ++r) {
    const size_t width = rbase + (r < rextra ? 1 : 0);
    const std::string cp = cp_prefix + ".range" + std::to_string(at) + "-" +
                           std::to_string(at + width);
    at += width;
    for (size_t g = 0; g < 5; ++g) {
      const std::string path = g == 0 ? cp : cp + "." + std::to_string(g);
      ::unlink(path.c_str());
    }
  }

  struct Proc {
    pid_t pid = -1;
    size_t attempt = 0;
  };
  Proc coord;
  std::vector<Proc> workers(p.workers);
  auto coord_args = [&](const std::string& listen) {
    return std::vector<std::string>{p.coordinator_bin,
                                    "--stream",
                                    p.stream,
                                    "--total-shards",
                                    std::to_string(p.shards),
                                    "--workers",
                                    std::to_string(p.workers),
                                    "--rate",
                                    std::to_string(p.rate),
                                    "--checkpoint-prefix",
                                    cp_prefix,
                                    "--checkpoint-every",
                                    std::to_string(p.checkpoint_every),
                                    "--out",
                                    prefix,
                                    "--listen",
                                    listen,
                                    "--port-file",
                                    port_file,
                                    "--heartbeat-timeout-ms",
                                    "1000",
                                    "--max-runtime-ms",
                                    "60000"};
  };
  auto kill_all = [&] {
    int wstatus = 0;
    if (coord.pid > 0) {
      ::kill(coord.pid, SIGKILL);
      ::waitpid(coord.pid, &wstatus, 0);
    }
    for (Proc& w : workers) {
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, &wstatus, 0);
      }
    }
  };

  GT_ASSIGN_OR_RETURN(
      coord.pid,
      SpawnChild(coord_args("127.0.0.1:0"), coord_target ? crash_env : "",
                 prefix + ".coord.attempt0.log"));

  // The coordinator publishes the port right after binding, before any
  // scripted crash point can fire, so this poll cannot race a kill.
  std::string port;
  for (int i = 0; i < 500 && port.empty(); ++i) {
    std::ifstream pf(port_file);
    std::getline(pf, port);
    if (port.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (port.empty()) {
    kill_all();
    out.failure = "coordinator never published its port; see " + prefix +
                  ".coord.attempt0.log";
    return out;
  }
  const std::string address = "127.0.0.1:" + port;

  auto worker_args = [&](size_t i) {
    return std::vector<std::string>{p.replayer_bin,
                                    "--worker",
                                    "--coordinator",
                                    address,
                                    "--worker-id",
                                    "w" + std::to_string(i),
                                    "--heartbeat-ms",
                                    "100",
                                    "--dial-attempts",
                                    "40",
                                    "--backoff-seed",
                                    std::to_string(11 + i)};
  };
  for (size_t i = 0; i < p.workers; ++i) {
    GT_ASSIGN_OR_RETURN(
        workers[i].pid,
        SpawnChild(worker_args(i), !coord_target && i == 0 ? crash_env : "",
                   prefix + ".w" + std::to_string(i) + ".attempt0.log"));
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(90);
  while (out.failure.empty() && !out.converged) {
    if (auto e = PollChild(coord.pid)) {
      if (e->exited && e->code == 0) {
        coord.pid = -1;
        out.converged = true;
        break;
      }
      if (e->signaled) {
        ++out.crashes;
        if (out.crashes > static_cast<size_t>(p.retry_budget)) {
          coord.pid = -1;
          out.failure = "respawn budget exhausted";
          break;
        }
        ++coord.attempt;
        // Respawn on the published port so workers re-dial the same
        // address; fleet state rebuilds from their re-HELLOs.
        GT_ASSIGN_OR_RETURN(
            coord.pid, SpawnChild(coord_args(address), "",
                                  prefix + ".coord.attempt" +
                                      std::to_string(coord.attempt) + ".log"));
      } else {
        const std::string log = prefix + ".coord.attempt" +
                                std::to_string(coord.attempt) + ".log";
        coord.pid = -1;
        out.failure = "coordinator failed (exit " + std::to_string(e->code) +
                      "); see " + log;
        break;
      }
    }
    for (size_t i = 0; i < p.workers && out.failure.empty(); ++i) {
      Proc& w = workers[i];
      if (w.pid <= 0) continue;
      if (auto e = PollChild(w.pid)) {
        if (e->signaled) {
          ++out.crashes;
          if (out.crashes > static_cast<size_t>(p.retry_budget)) {
            w.pid = -1;
            out.failure = "respawn budget exhausted";
            break;
          }
          ++w.attempt;
          GT_ASSIGN_OR_RETURN(
              w.pid, SpawnChild(worker_args(i), "",
                                prefix + ".w" + std::to_string(i) +
                                    ".attempt" + std::to_string(w.attempt) +
                                    ".log"));
        } else if (e->exited && e->code == 0) {
          w.pid = -1;  // dismissed with the fleet's completion DRAIN
        } else {
          const std::string log = prefix + ".w" + std::to_string(i) +
                                  ".attempt" + std::to_string(w.attempt) +
                                  ".log";
          w.pid = -1;
          out.failure = "worker w" + std::to_string(i) + " failed (exit " +
                        std::to_string(e->code) + "); see " + log;
          break;
        }
      }
    }
    if (std::chrono::steady_clock::now() > deadline) {
      out.failure = "fleet trial timed out";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // A scripted kill close to the drain can race the coordinator's own
  // exit: the victim's corpse may still be waiting when the loop breaks
  // on convergence. Reap those now so the crash count stays truthful —
  // live stragglers killed below are dismissals, not crashes.
  for (Proc& w : workers) {
    if (w.pid <= 0) continue;
    if (auto e = PollChild(w.pid)) {
      if (e->signaled) ++out.crashes;
      w.pid = -1;
    }
  }

  // The coordinator only exits 0 after every range drained and accounting
  // balanced, and workers flush lane files before sending DRAIN — so once
  // converged, the outputs are final and straggling workers (still waiting
  // out a dismissed session) can simply be killed.
  kill_all();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // A flag's default is what its destination holds before parsing.
  DrillParams params;
  params.replayer_bin = SiblingBinary(argv[0], "gt_replay");
  params.coordinator_bin = SiblingBinary(argv[0], "gt_coordinator");
  std::string generator = SiblingBinary(argv[0], "gt_generate");
  std::string model = "social";
  std::string workdir = "gt_chaos_work";
  std::string diff_out;
  std::string crash_at;
  uint64_t generate_rounds = 200;
  uint64_t seed = 1;
  uint64_t random_kills = 0;
  uint64_t marker_interval = 0;
  FlagTable flags("gt_chaos");
  flags.Add("in", &params.stream);
  flags.Add("generate", &generate_rounds);
  flags.Add("model", &model);
  flags.Add("seed", &seed);
  flags.Add("shards", &params.shards);
  flags.Add("rate", &params.rate);
  flags.Add("replayer", &params.replayer_bin);
  flags.Add("generator", &generator);
  flags.Add("crash-at", &crash_at);
  flags.Add("random-kills", &random_kills);
  flags.Add("checkpoint-every", &params.checkpoint_every);
  flags.Add("retry-budget", &params.retry_budget);
  flags.Add("workdir", &workdir);
  flags.Add("diff-out", &diff_out);
  flags.Add("workers", &params.workers);
  flags.Add("coordinator", &params.coordinator_bin);
  flags.Add("marker-interval", &marker_interval);
  if (auto exit_code = flags.ParseCommandLine(argc, argv)) return *exit_code;

  // Everything a child would reject is rejected here, before the first
  // child starts: the replay cell every trial runs goes through the
  // validator the child gt_replay (or gt_coordinator) applies, and each
  // --crash-at entry is parsed into a scratch fault plan.
  ShardedReplayerOptions cell;
  cell.shards = params.shards;
  cell.total_rate_eps = params.rate;
  cell.checkpoint_every = params.checkpoint_every;
  cell.checkpoint_generations = params.checkpoint_generations;
  cell.checkpoint_path = workdir + "/trial.cp";
  if (Status st = ValidateReplayConfig(cell, {.files = true}); !st.ok()) {
    return Fail(st);
  }
  const bool distributed = params.workers > 0;
  if (distributed && params.shards < 2) {
    return Fail(Status::InvalidArgument(
        "--workers needs --shards >= 2 (a fleet partitions the shard "
        "space; give the golden run the same width)"));
  }
  if (params.checkpoint_every < 1) {
    return Fail(Status::InvalidArgument("--checkpoint-every must be >= 1"));
  }
  if (params.retry_budget < 1) {
    return Fail(Status::InvalidArgument("--retry-budget must be >= 1"));
  }
  std::vector<std::string> scripted;
  FaultPlan crash_check;
  for (const std::string_view part : SplitString(crash_at, ',')) {
    const std::string spec(TrimWhitespace(part));
    if (spec.empty()) continue;
    if (Status st = crash_check.Configure("crash=" + spec); !st.ok()) {
      return Fail(st.WithContext("--crash-at"));
    }
    scripted.push_back(spec);
  }
  if (!flags.Given("marker-interval") && distributed) marker_interval = 100;

  if (::mkdir(workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Fail(Status::IoError("cannot create " + workdir));
  }
  if (!flags.Given("diff-out")) diff_out = workdir + "/diff.txt";

  // Workload: caller-provided stream, or a generated one.
  if (params.stream.empty()) {
    params.stream = workdir + "/stream.gts";
    std::vector<std::string> gen_args = {
        generator, "--model", model, "--rounds",
        std::to_string(generate_rounds), "--seed", std::to_string(seed),
        "--out", params.stream};
    if (marker_interval > 0) {
      gen_args.insert(gen_args.end(), {"--marker-interval",
                                       std::to_string(marker_interval)});
    }
    auto gen = RunChild(gen_args, "", workdir + "/generate.log");
    if (!gen.ok()) return Fail(gen.status());
    if (!gen->exited || gen->code != 0) {
      return Fail(Status::IoError("stream generation failed; see " + workdir +
                                  "/generate.log"));
    }
  }
  auto entries = CountLines(params.stream);
  if (!entries.ok()) return Fail(entries.status());
  if (*entries == 0) return Fail(Status::InvalidArgument("empty stream"));

  const size_t shards = params.shards;
  auto replay_args = [&](const std::string& out_prefix,
                         const std::string& checkpoint,
                         bool resume) {
    std::vector<std::string> args = {
        params.replayer_bin, "--in", params.stream, "--rate",
        std::to_string(params.rate), "--shards", std::to_string(shards),
        "--out", out_prefix};
    if (!checkpoint.empty()) {
      args.insert(args.end(),
                  {"--checkpoint-file", checkpoint, "--checkpoint-every",
                   std::to_string(params.checkpoint_every),
                   "--checkpoint-generations",
                   std::to_string(params.checkpoint_generations)});
      if (resume) args.insert(args.end(), {"--resume-from", checkpoint});
    }
    return args;
  };

  // Golden: one uninterrupted run, no checkpointing in the way.
  const std::string golden_prefix = workdir + "/golden";
  auto golden_run = RunChild(replay_args(golden_prefix, "", false), "",
                             workdir + "/golden.log");
  if (!golden_run.ok()) return Fail(golden_run.status());
  if (!golden_run->exited || golden_run->code != 0) {
    return Fail(Status::IoError("golden run failed; see " + workdir +
                                "/golden.log"));
  }
  std::vector<std::string> golden_bytes(shards);
  for (size_t s = 0; s < shards; ++s) {
    auto data = ReadWholeFile(LaneOutputPath(golden_prefix, s, shards));
    if (!data.ok()) return Fail(data.status());
    golden_bytes[s] = std::move(*data);
  }
  std::fprintf(stderr, "gt_chaos: golden run: %zu entries, %zu shard(s)\n",
               *entries, shards);

  // Trial plan: scripted crash points first, then seeded random positions.
  std::vector<Trial> trials;
  if (flags.Given("crash-at")) {
    for (const std::string& spec : scripted) {
      trials.push_back({"scripted " + spec, spec});
    }
  } else if (distributed) {
    // Default fleet drill: kill each side of the control plane at its
    // dedicated points, plus a data-plane kill mid-range and a torn
    // checkpoint write inside worker 0.
    const std::string mid_range = std::to_string(std::max<size_t>(
        1, *entries / (2 * params.workers)));
    for (const std::string& spec :
         {std::string(kCrashWorkerPostHello) + ":1",
          std::string(kCrashWorkerEpochReport) + ":2",
          std::string(kCrashPostDelivery) + ":" + mid_range,
          std::string(kCrashMidCheckpointWrite) + ":2",
          std::string(kCrashCoordPostAssign) + ":1",
          std::string(kCrashCoordEpochRelease) + ":2"}) {
      trials.push_back({"scripted " + spec, spec});
    }
  } else {
    // Default: every compiled crash point that can fire in a single
    // process (the coord-*/worker-* points only exist in a fleet). Crash
    // points that fire inside checkpoint writes target hit 2 so one good
    // generation exists to fall back to; post-delivery targets mid-stream.
    for (const std::string_view point : FaultPlan::KnownCrashPoints()) {
      if (point == kCrashEpochBarrier && shards == 1) continue;
      if (point.rfind("coord-", 0) == 0 || point.rfind("worker-", 0) == 0) {
        continue;
      }
      std::string spec(point);
      spec += point == kCrashPostDelivery
                  ? ":" + std::to_string(std::max<size_t>(1, *entries / 2))
                  : ":2";
      trials.push_back({"scripted " + spec, spec});
    }
  }
  Rng rng(seed ^ 0xc4a5c85d68dbef22ULL);
  for (uint64_t k = 0; k < random_kills; ++k) {
    // Random position in the stream: crash after a uniformly random
    // delivered event. Occasionally pick a checkpoint-path point instead so
    // randomized trials also exercise torn-rename windows.
    std::string spec;
    const double pick = rng.NextDouble();
    if (pick < 0.7) {
      spec = std::string(kCrashPostDelivery) + ":" +
             std::to_string(1 + rng.NextBounded(*entries));
    } else {
      const size_t max_checkpoints =
          std::max<size_t>(1, *entries / params.checkpoint_every);
      const std::string_view points[] = {kCrashMidCheckpointWrite,
                                         kCrashPreCheckpointRename,
                                         kCrashPostCheckpoint};
      spec = std::string(points[rng.NextBounded(3)]) + ":" +
             std::to_string(1 + rng.NextBounded(max_checkpoints));
    }
    trials.push_back({"random #" + std::to_string(k) + " " + spec, spec});
  }

  size_t passed = 0;
  size_t failed = 0;
  std::FILE* diff_file = nullptr;
  auto report_diff = [&](const std::string& trial, size_t s, size_t offset,
                         const std::string& got) {
    if (diff_file == nullptr) diff_file = std::fopen(diff_out.c_str(), "w");
    if (diff_file == nullptr) return;
    std::fprintf(diff_file,
                 "trial %s shard %zu: first diff at offset %zu\n"
                 "  golden: %s\n  got:    %s\n",
                 trial.c_str(), s, offset,
                 HexContext(golden_bytes[s], offset).c_str(),
                 HexContext(got, offset).c_str());
  };

  for (size_t t = 0; t < trials.size(); ++t) {
    const Trial& trial = trials[t];
    const std::string prefix = workdir + "/trial" + std::to_string(t);
    const std::string checkpoint = prefix + ".cp";

    size_t crashes = 0;
    bool converged = false;
    std::string failure;
    if (distributed) {
      auto fleet = RunFleetTrial(params, prefix, trial.crash_env);
      if (!fleet.ok()) return Fail(fleet.status());
      crashes = fleet->crashes;
      converged = fleet->converged;
      failure = fleet->failure;
    } else {
      // Scrub leftovers from a previous invocation: a stale checkpoint
      // generation would poison the resume path.
      for (size_t g = 0; g < 4; ++g) {
        const std::string path =
            g == 0 ? checkpoint : checkpoint + "." + std::to_string(g);
        ::unlink(path.c_str());
      }
      for (int attempt = 0; attempt <= params.retry_budget; ++attempt) {
        // Resume only when a checkpoint was published before the kill; a
        // crash before the first checkpoint restarts from scratch.
        struct ::stat cp_stat {};
        const bool have_checkpoint =
            attempt > 0 && ::stat(checkpoint.c_str(), &cp_stat) == 0;
        const std::string log =
            prefix + ".attempt" + std::to_string(attempt) + ".log";
        auto child = RunChild(replay_args(prefix, checkpoint, have_checkpoint),
                              attempt == 0 ? trial.crash_env : "", log);
        if (!child.ok()) return Fail(child.status());
        if (child->exited && child->code == 0) {
          converged = true;
          break;
        }
        if (child->signaled) {
          ++crashes;
          continue;  // supervised resume
        }
        failure = "replayer failed (exit " + std::to_string(child->code) +
                  "); see " + log;
        break;
      }
    }
    if (converged) {
      for (size_t s = 0; s < shards; ++s) {
        auto data = ReadWholeFile(LaneOutputPath(prefix, s, shards));
        if (!data.ok()) return Fail(data.status());
        const size_t diff = FirstDiff(golden_bytes[s], *data);
        if (diff != std::string::npos) {
          failure = "shard " + std::to_string(s) + " differs at offset " +
                    std::to_string(diff) + " (golden " +
                    std::to_string(golden_bytes[s].size()) + " B, got " +
                    std::to_string(data->size()) + " B)";
          report_diff(trial.name, s, diff, *data);
          break;
        }
      }
    } else if (failure.empty()) {
      failure = "resume budget exhausted after " + std::to_string(crashes) +
                " crash(es)";
    }

    if (failure.empty()) {
      ++passed;
      std::fprintf(stderr, "gt_chaos: PASS %-40s (%zu crash(es))\n",
                   trial.name.c_str(), crashes);
    } else {
      ++failed;
      std::fprintf(stderr, "gt_chaos: FAIL %-40s %s\n", trial.name.c_str(),
                   failure.c_str());
    }
  }
  if (diff_file != nullptr) {
    std::fclose(diff_file);
    std::fprintf(stderr, "gt_chaos: mismatch details -> %s\n",
                 diff_out.c_str());
  }

  std::fprintf(stderr,
               "gt_chaos: %zu/%zu trial(s) byte-identical after kill–resume "
               "(%zu shard(s), %s, retry budget %d)\n",
               passed, trials.size(), shards,
               distributed
                   ? (std::to_string(params.workers) + "-worker fleet").c_str()
                   : "single process",
               params.retry_budget);
  return failed == 0 ? 0 : 2;
}
