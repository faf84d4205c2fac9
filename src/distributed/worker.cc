#include "distributed/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/fault_plan.h"
#include "common/random.h"
#include "distributed/backoff.h"
#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"
#include "replayer/lane_outputs.h"
#include "replayer/sharded_replayer.h"

namespace graphtides {

namespace {

std::string DefaultWorkerId() {
  return "worker-" + std::to_string(static_cast<long>(::getpid()));
}

}  // namespace

/// One assigned shard range: its parameters as received in the ASSIGN /
/// REASSIGN frame, the replayer driving it, and its thread.
struct ReplayWorker::Task {
  ShardRange range;
  std::string stream;
  uint64_t total_shards = 0;
  double rate_eps = 10000.0;
  std::string checkpoint_path;
  uint64_t checkpoint_every = 0;
  uint64_t checkpoint_generations = 2;
  std::string out_prefix;
  bool honor_controls = true;

  CancellationToken cancel;
  /// Published under the worker mutex once built, so the heartbeat loop
  /// can read live progress from another thread.
  std::shared_ptr<ShardedReplayer> replayer;
  /// Set by the epoch hook when it aborts the run (coordinator lost): the
  /// exit is a partition-rule quiesce, not a failure.
  std::atomic<bool> hook_quiesced{false};
  std::atomic<bool> done{false};
  std::thread thread;
};

ReplayWorker::ReplayWorker(ReplayWorkerOptions options)
    : options_(std::move(options)) {
  if (options_.worker_id.empty()) options_.worker_id = DefaultWorkerId();
}

ReplayWorker::~ReplayWorker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& task : tasks_) task->cancel.RequestCancel("worker shutdown");
  }
  release_cv_.notify_all();
  ReapTasks(/*all=*/true);
}

ReplayWorker::Totals ReplayWorker::totals() const {
  Totals t;
  t.tasks_started = tasks_started_.load();
  t.resumes = resumes_.load();
  t.quiesces = quiesces_.load();
  t.checkpoint_fallbacks = checkpoint_fallbacks_.load();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [range, local] : local_final_) t.local_events += local;
  return t;
}

Status ReplayWorker::SendToCoordinator(const Frame& frame) {
  ControlChannel* channel = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    channel = channel_;
  }
  if (channel == nullptr) {
    return Status::Unavailable("no active coordinator session");
  }
  // The channel outlives this call: Run() only destroys it after every
  // task thread (the only other senders) has been joined.
  return channel->Send(frame);
}

Status ReplayWorker::Run() {
  Rng backoff_rng(options_.backoff_seed);
  const BackoffPolicy backoff;
  int failed_dials = 0;
  Status last_dial_error =
      Status::Unavailable("coordinator never dialed");
  bool finished = false;

  while (!finished) {
    auto channel_or =
        ControlChannel::Dial(options_.coordinator_host,
                             options_.coordinator_port,
                             options_.connect_timeout_ms);
    if (!channel_or.ok()) {
      last_dial_error = channel_or.status();
      if (++failed_dials >= options_.dial_attempts) {
        return last_dial_error.WithContext(
            "gave up after " + std::to_string(failed_dials) +
            " dial attempts");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoff.DelayMs(failed_dials - 1, &backoff_rng)));
      continue;
    }
    failed_dials = 0;
    std::unique_ptr<ControlChannel> channel = std::move(*channel_or);

    Frame hello(FrameType::kHello);
    hello.Set("worker", options_.worker_id);
    hello.SetU64("pid", static_cast<uint64_t>(::getpid()));
    if (Status st = channel->Send(hello); !st.ok()) {
      // Dialed but could not introduce ourselves — treat as a failed dial.
      ++failed_dials;
      continue;
    }
    FaultPlan::Global().Hit(kCrashWorkerPostHello);

    {
      std::lock_guard<std::mutex> lock(mu_);
      channel_ = channel.get();
    }
    const Status session = RunSession(channel.get(), &finished);
    channel->Shutdown();
    {
      std::lock_guard<std::mutex> lock(mu_);
      channel_ = nullptr;
    }
    // Wake epoch hooks blocked on a release that will never arrive: each
    // quiesces its task at the barrier with a final exact checkpoint.
    release_cv_.notify_all();
    // Partition rule: wait for every task to quiesce (or finish) before
    // re-dialing, so the next session starts from durable state only.
    ReapTasks(/*all=*/true);
    if (finished) return Status::OK();
    if (session.code() == StatusCode::kParseError ||
        session.code() == StatusCode::kInternal) {
      // A corrupt control stream or a coordinator-reported fatal error is
      // not survivable by re-dialing the same way.
      return session;
    }
    // Transport loss: re-dial with backoff and let the (possibly new)
    // coordinator reassign; resumed tasks continue byte-exactly.
  }
  return Status::OK();
}

Status ReplayWorker::RunSession(ControlChannel* channel, bool* finished) {
  while (true) {
    auto frame_or = channel->Receive(options_.heartbeat_interval_ms);
    if (!frame_or.ok()) {
      if (frame_or.status().code() == StatusCode::kTimeout) {
        SendHeartbeats(channel);
        ReapTasks(/*all=*/false);
        continue;
      }
      return frame_or.status();
    }
    const Frame& frame = *frame_or;
    switch (frame.type) {
      case FrameType::kAssign:
      case FrameType::kReassign:
        StartTask(frame);
        break;
      case FrameType::kEpoch: {
        auto release = frame.GetU64("release");
        if (release.ok()) {
          {
            std::lock_guard<std::mutex> lock(mu_);
            if (*release > released_epoch_) released_epoch_ = *release;
          }
          release_cv_.notify_all();
        }
        break;
      }
      case FrameType::kDrain:
        // Coordinator-side DRAIN: the fleet is complete, shut down.
        *finished = true;
        return Status::OK();
      case FrameType::kError:
        return Status::Internal("coordinator error: " +
                                frame.Get("reason", "(unspecified)"));
      case FrameType::kHeartbeat:
      case FrameType::kHello:
      case FrameType::kCheckpointAck:
        break;  // liveness echo / not meaningful coordinator->worker
    }
  }
}

void ReplayWorker::SendHeartbeats(ControlChannel* channel) {
  size_t live = 0;
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> beats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& task : tasks_) {
      if (task->done.load() || task->replayer == nullptr) continue;
      ++live;
      beats.emplace_back(
          task->range.ToString(),
          std::make_pair(task->replayer->local_delivered(),
                         task->replayer->progress()));
    }
  }
  if (live == 0) {
    // Idle liveness beat so the coordinator's watchdog keeps counting.
    Frame beat(FrameType::kHeartbeat);
    beat.Set("worker", options_.worker_id);
    (void)channel->Send(beat);
    return;
  }
  for (const auto& [range, counters] : beats) {
    Frame beat(FrameType::kHeartbeat);
    beat.Set("worker", options_.worker_id);
    beat.Set("range", range);
    beat.SetU64("local", counters.first);
    beat.SetU64("events", counters.second);
    if (!channel->Send(beat).ok()) return;  // session loss surfaces in Receive
  }
}

void ReplayWorker::StartTask(const Frame& assign) {
  ReapTasks(/*all=*/false);

  auto range_or = ShardRange::Parse(assign.Get("range"));
  if (!range_or.ok()) {
    Frame err(FrameType::kError);
    err.Set("worker", options_.worker_id);
    err.Set("reason", range_or.status().ToString());
    (void)SendToCoordinator(err);
    return;
  }

  auto task = std::make_unique<Task>();
  task->range = *range_or;
  task->stream = assign.Get("stream");
  task->checkpoint_path = assign.Get("checkpoint");
  task->out_prefix = assign.Get("out");
  task->honor_controls = assign.Get("honor_controls", "1") != "0";
  if (auto v = assign.GetU64("total_shards"); v.ok()) task->total_shards = *v;
  if (auto v = assign.GetDouble("rate_eps"); v.ok()) task->rate_eps = *v;
  if (auto v = assign.GetU64("checkpoint_every"); v.ok()) {
    task->checkpoint_every = *v;
  }
  if (auto v = assign.GetU64("checkpoint_generations"); v.ok()) {
    task->checkpoint_generations = *v;
  }
  if (task->stream.empty() || task->checkpoint_path.empty() ||
      task->out_prefix.empty() || task->total_shards == 0) {
    Frame err(FrameType::kError);
    err.Set("worker", options_.worker_id);
    err.Set("range", task->range.ToString());
    err.Set("reason",
            "assignment missing stream/checkpoint/out/total_shards");
    (void)SendToCoordinator(err);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& existing : tasks_) {
      if (!existing->done.load() &&
          existing->range.begin == task->range.begin &&
          existing->range.end == task->range.end) {
        return;  // duplicate (re)assignment of a range we are running
      }
    }
  }

  tasks_started_.fetch_add(1);
  Task* raw = task.get();
  raw->thread = std::thread([this, raw] { RunRangeTask(raw); });
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.push_back(std::move(task));
}

void ReplayWorker::RunRangeTask(Task* task) {
  const std::string range_text = task->range.ToString();
  auto report_error = [&](const Status& status) {
    Frame err(FrameType::kError);
    err.Set("worker", options_.worker_id);
    err.Set("range", range_text);
    err.Set("reason", status.ToString());
    (void)SendToCoordinator(err);
    task->done.store(true);
  };

  // Resume: newest good checkpoint generation, if any exists. NotFound
  // means a fresh start; any other load error is fatal for the task —
  // guessing over existing output files would break byte-exactness.
  std::optional<ReplayCheckpoint> resume;
  auto loaded = CheckpointStore::LoadLatestGood(task->checkpoint_path);
  if (loaded.ok()) {
    resume = loaded->checkpoint;
    checkpoint_fallbacks_.fetch_add(loaded->fallbacks);
    resumes_.fetch_add(1);
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    report_error(loaded.status().WithContext("loading checkpoint for range " +
                                             range_text));
    return;
  }

  // Per-lane output files named exactly like the single-process golden
  // (gt_replay --out with total_shards lanes): global shard s writes
  // <out>.shard<s>. On resume, truncate to the checkpointed offset first.
  const size_t width = task->range.width();
  std::vector<std::string> paths;
  for (size_t l = 0; l < width; ++l) {
    paths.push_back(ShardOutputPath(task->out_prefix, task->range.begin + l));
  }
  Result<LaneOutputs> outputs =
      OpenLaneOutputs(paths, resume ? &*resume : nullptr);
  if (!outputs.ok()) {
    report_error(outputs.status().WithContext("range " + range_text));
    return;
  }

  if (resume.has_value()) {
    // Ack the durable state we are resuming from, so the coordinator's
    // bookkeeping converges even across its own restarts.
    Frame ack(FrameType::kCheckpointAck);
    ack.Set("worker", options_.worker_id);
    ack.Set("range", range_text);
    ack.SetU64("local", resume->local_events);
    ack.SetU64("entries", resume->entries_consumed);
    ack.SetU64("resumed", 1);
    ack.SetU64("fallbacks", loaded->fallbacks);
    (void)SendToCoordinator(ack);
  }

  ShardedReplayerOptions options;
  options.shards = width;
  options.total_shards = task->total_shards;
  options.shard_offset = task->range.begin;
  options.total_rate_eps = task->rate_eps;
  options.honor_control_events = task->honor_controls;
  options.cancel = &task->cancel;
  options.checkpoint_every = task->checkpoint_every;
  options.checkpoint_path = task->checkpoint_path;
  options.checkpoint_generations =
      static_cast<size_t>(task->checkpoint_generations);
  options.record_sink_bytes = true;
  options.epoch_hook = [this, task, &range_text](uint64_t epoch) -> Status {
    FaultPlan::Global().Hit(kCrashWorkerEpochReport);
    Frame report(FrameType::kEpoch);
    report.Set("worker", options_.worker_id);
    report.Set("range", range_text);
    report.SetU64("epoch", epoch);
    if (Status st = SendToCoordinator(report); !st.ok()) {
      task->hook_quiesced.store(true);
      return Status::Unavailable("coordinator unreachable at epoch " +
                                 std::to_string(epoch));
    }
    std::unique_lock<std::mutex> lock(mu_);
    const bool released = release_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.epoch_wait_timeout_ms),
        [&] {
          return released_epoch_ >= epoch || channel_ == nullptr ||
                 task->cancel.cancelled();
        });
    if (released_epoch_ >= epoch) return Status::OK();
    if (task->cancel.cancelled()) {
      return Status::Cancelled("worker shutting down at epoch " +
                               std::to_string(epoch));
    }
    (void)released;
    task->hook_quiesced.store(true);
    return Status::Unavailable(
        channel_ == nullptr
            ? "coordinator session lost at epoch " + std::to_string(epoch)
            : "epoch " + std::to_string(epoch) + " release timed out");
  };

  auto replayer = std::make_shared<ShardedReplayer>(options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    task->replayer = replayer;
  }

  auto stats = replayer->ReplayFile(task->stream, outputs->sinks(),
                                    resume ? &*resume : nullptr);
  outputs->Close();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Cumulative across resumes: the final value IS the range's total.
    local_final_[range_text] = replayer->local_delivered();
  }

  if (!stats.ok()) {
    if (task->hook_quiesced.load()) {
      // Partition-rule quiesce: the run stopped at an epoch barrier with a
      // final exact checkpoint; the next session resumes it byte-exactly.
      quiesces_.fetch_add(1);
      task->done.store(true);
      return;
    }
    if (stats.status().code() == StatusCode::kCancelled) {
      task->done.store(true);  // worker shutdown, nothing to report
      return;
    }
    report_error(stats.status());
    return;
  }

  // Final checkpoint (written by the run when checkpoint_every > 0) is the
  // durable completion record; ack it, then declare the range drained.
  Frame ack(FrameType::kCheckpointAck);
  ack.Set("worker", options_.worker_id);
  ack.Set("range", range_text);
  ack.SetU64("local", replayer->local_delivered());
  ack.SetU64("entries", stats->aggregate.entries_consumed);
  (void)SendToCoordinator(ack);

  Frame drain(FrameType::kDrain);
  drain.Set("worker", options_.worker_id);
  drain.Set("range", range_text);
  drain.SetU64("local", replayer->local_delivered());
  drain.SetU64("events", stats->aggregate.events_delivered);
  drain.SetU64("entries", stats->aggregate.entries_consumed);
  drain.SetU64("markers", stats->aggregate.markers);
  drain.SetU64("controls", stats->aggregate.controls);
  drain.SetU64("checkpoints", stats->aggregate.checkpoints_written);
  drain.SetU64("resumes", resume.has_value() ? 1 : 0);
  drain.Set("lag", EncodeHistogram(stats->aggregate.lag));
  (void)SendToCoordinator(drain);
  task->done.store(true);
}

void ReplayWorker::ReapTasks(bool all) {
  std::vector<std::unique_ptr<Task>> reaped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < tasks_.size();) {
      if (all || tasks_[i]->done.load()) {
        reaped.push_back(std::move(tasks_[i]));
        tasks_.erase(tasks_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
  }
  // Join outside the lock: task threads take mu_ on their way out.
  for (auto& task : reaped) {
    if (task->thread.joinable()) task->thread.join();
  }
}

}  // namespace graphtides
