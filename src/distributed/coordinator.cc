#include "distributed/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/fault_plan.h"
#include "common/random.h"
#include "distributed/backoff.h"
#include "harness/run_watchdog.h"
#include "harness/telemetry/snapshot.h"
#include "replayer/replay_config.h"

namespace graphtides {

/// One accepted control connection. The reader thread and the watchdog
/// reference the Conn by raw pointer, so Conns are never erased while the
/// coordinator runs — dead ones are only flagged.
struct Coordinator::Conn {
  uint64_t id = 0;
  std::unique_ptr<ControlChannel> channel;
  std::thread reader;
  std::unique_ptr<RunWatchdog> watchdog;
  /// Frames received — the watchdog's progress probe (worker heartbeats
  /// keep it advancing even when a range is idle at a barrier).
  std::atomic<uint64_t> frames{0};
  // Main-loop-only state below.
  std::string worker;
  bool dead = false;
};

/// One dealt shard range and its recovery bookkeeping (main loop only).
struct Coordinator::RangeState {
  ShardRange range;
  std::string checkpoint_path;
  /// Conn id of the current owner; 0 = awaiting (re)assignment.
  uint64_t owner = 0;
  bool drained = false;
  /// Highest epoch the range has reported.
  uint64_t epoch = 0;
  /// Latest local-delivered count heard (heartbeat / checkpoint ack).
  uint64_t local = 0;
  /// Authoritative local count from the range's DRAIN.
  uint64_t local_final = 0;
  /// Reassignment downtime window: open from owner death until the first
  /// frame from the new owner (that close is the MTTR sample).
  bool down = false;
  Timestamp down_since;
};

struct Coordinator::Msg {
  enum Kind { kFrame, kClosed, kHung } kind = kFrame;
  uint64_t conn_id = 0;
  Frame frame;
  Status status = Status::OK();
};

std::string FleetReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "fleet: %llu events (%llu local, exactly-once=%s), %llu entries, "
      "%llu markers, %llu controls, %llu epochs released, %llu "
      "checkpoints\nrecovery: %llu worker(s) seen, %llu death(s), %llu "
      "reassignment(s), %llu resume(s), %llu checkpoint fallback(s), "
      "%.3f s downtime, %.3f s MTTR",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(local_events),
      exactly_once() ? "yes" : "NO",
      static_cast<unsigned long long>(entries),
      static_cast<unsigned long long>(markers),
      static_cast<unsigned long long>(controls),
      static_cast<unsigned long long>(epochs_released),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(workers_seen),
      static_cast<unsigned long long>(worker_deaths),
      static_cast<unsigned long long>(reassignments),
      static_cast<unsigned long long>(resumes),
      static_cast<unsigned long long>(checkpoint_fallbacks), downtime_s,
      mttr_s);
  return buf;
}

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)), send_rng_(options_.backoff_seed) {}

Coordinator::~Coordinator() {
  Stop();
  ShutdownFleet();
}

Status ValidateCoordinatorOptions(const CoordinatorOptions& options) {
  if (options.stream.empty() || options.checkpoint_prefix.empty() ||
      options.out_prefix.empty()) {
    return Status::InvalidArgument(
        "coordinator needs stream, checkpoint_prefix, and out_prefix");
  }
  if (options.total_shards == 0 || options.workers == 0) {
    return Status::InvalidArgument(
        "coordinator needs total_shards > 0 and workers > 0");
  }
  // What a worker dealt the whole hash space runs with (ReplayWorker
  // builds it from the ASSIGN frame); a narrower range differs only in its
  // shard count, offset and share of the rate.
  ShardedReplayerOptions replay;
  replay.shards = options.total_shards;
  replay.total_rate_eps = options.rate_eps;
  replay.checkpoint_every = options.checkpoint_every;
  replay.checkpoint_path = options.checkpoint_prefix;
  replay.checkpoint_generations = options.checkpoint_generations;
  replay.honor_control_events = options.honor_controls;
  GT_RETURN_NOT_OK(ValidateReplayHarness(
      {.telemetry_period = Duration::FromMillis(options.telemetry_every_ms)}));
  return ValidateReplayConfig(replay, {.files = true});
}

Result<uint16_t> Coordinator::Start() {
  GT_RETURN_NOT_OK(ValidateCoordinatorOptions(options_));
  GT_ASSIGN_OR_RETURN(const uint16_t port,
                      listener_.Listen(options_.host, options_.port));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port;
}

void Coordinator::Stop() {
  stopping_.store(true);
  listener_.Close();
  inbox_cv_.notify_all();
}

void Coordinator::ShutdownFleet() {
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& [id, conn] : conns_) {
    conn->channel->Shutdown();
    if (conn->watchdog) conn->watchdog->Disarm();
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Coordinator::PostMsg(Msg msg) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(msg));
  }
  inbox_cv_.notify_all();
}

void Coordinator::AcceptLoop() {
  while (!stopping_.load()) {
    auto channel_or = listener_.Accept(/*timeout_ms=*/200);
    if (!channel_or.ok()) {
      if (channel_or.status().code() == StatusCode::kTimeout) continue;
      return;  // listener closed
    }
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      raw->id = next_conn_id_++;
      raw->channel = std::move(*channel_or);
      conns_.emplace(raw->id, std::move(conn));
    }
    WatchdogOptions wd;
    wd.stall_deadline =
        Duration::FromMillis(options_.heartbeat_timeout_ms);
    wd.poll_interval = Duration::FromMillis(
        std::max(10, options_.heartbeat_timeout_ms / 10));
    raw->watchdog = std::make_unique<RunWatchdog>(wd);
    raw->watchdog->Arm([raw] { return raw->frames.load(); },
                       [this, raw](uint64_t, Duration) {
                         Msg msg;
                         msg.kind = Msg::kHung;
                         msg.conn_id = raw->id;
                         PostMsg(std::move(msg));
                       });
    raw->reader = std::thread([this, raw] { ReadLoop(raw); });
  }
}

void Coordinator::ReadLoop(Conn* conn) {
  while (true) {
    auto frame_or = conn->channel->Receive(/*timeout_ms=*/500);
    if (!frame_or.ok()) {
      if (frame_or.status().code() == StatusCode::kTimeout) continue;
      Msg msg;
      msg.kind = Msg::kClosed;
      msg.conn_id = conn->id;
      msg.status = frame_or.status();
      PostMsg(std::move(msg));
      return;
    }
    conn->frames.fetch_add(1);
    Msg msg;
    msg.kind = Msg::kFrame;
    msg.conn_id = conn->id;
    msg.frame = std::move(*frame_or);
    PostMsg(std::move(msg));
  }
}

Status Coordinator::SendWithRetry(Conn* conn, const Frame& frame) {
  const BackoffPolicy backoff{/*base_ms=*/20, /*max_ms=*/200};
  Status last = Status::OK();
  for (int attempt = 0; attempt < std::max(1, options_.send_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoff.DelayMs(attempt - 1, &send_rng_)));
    }
    last = conn->channel->Send(frame);
    if (last.ok()) return last;
    if (last.code() == StatusCode::kInvalidArgument) return last;
  }
  return last;
}

Result<FleetReport> Coordinator::Run() {
  auto result = RunLoop();
  Stop();
  ShutdownFleet();
  return result;
}

Result<FleetReport> Coordinator::RunLoop() {
  // Deal total_shards into contiguous ranges, one per expected worker by
  // default. Each range gets its own checkpoint store.
  uint32_t nranges = options_.ranges == 0
                         ? static_cast<uint32_t>(options_.workers)
                         : options_.ranges;
  nranges = std::min(nranges, options_.total_shards);
  std::vector<RangeState> ranges(nranges);
  const uint32_t base = options_.total_shards / nranges;
  const uint32_t extra = options_.total_shards % nranges;
  uint32_t at = 0;
  for (uint32_t i = 0; i < nranges; ++i) {
    const uint32_t width = base + (i < extra ? 1 : 0);
    ranges[i].range = ShardRange{at, at + width};
    at += width;
    ranges[i].checkpoint_path =
        options_.checkpoint_prefix + ".range" + ranges[i].range.ToString();
  }

  std::FILE* telemetry = nullptr;
  if (!options_.telemetry_out.empty()) {
    telemetry = std::fopen(options_.telemetry_out.c_str(), "wb");
    if (telemetry == nullptr) {
      return Status::IoError("cannot open " + options_.telemetry_out);
    }
  }

  MonotonicClock clock;
  const Timestamp start = clock.Now();
  FleetReport report;
  std::set<std::string> worker_names;
  int64_t downtime_nanos = 0;
  uint64_t released = 0;
  bool dealt = false;
  bool have_totals = false;
  Status mismatch = Status::OK();
  uint64_t tel_seq = 0;
  Timestamp tel_last_at = start;
  uint64_t tel_last_events = 0;
  uint64_t tel_events_hwm = 0;  // running max: Σ local can transiently
                                // dip after a resume rewinds to a
                                // checkpoint, but telemetry stays monotone

  auto conn_by_id = [&](uint64_t id) -> Conn* {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
  };
  auto live_conns = [&] {
    std::vector<Conn*> live;
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      if (!conn->dead && !conn->worker.empty()) live.push_back(conn.get());
    }
    return live;
  };
  auto find_range = [&](const std::string& text) -> RangeState* {
    for (RangeState& r : ranges) {
      if (r.range.ToString() == text) return &r;
    }
    return nullptr;
  };
  auto owned_ranges = [&](uint64_t conn_id) {
    size_t n = 0;
    for (const RangeState& r : ranges) {
      if (r.owner == conn_id && !r.drained) ++n;
    }
    return n;
  };
  auto recoveries = [&] { return report.resumes + report.reassignments; };
  auto mttr_s = [&] {
    const uint64_t n = recoveries();
    return n == 0 ? 0.0
                  : static_cast<double>(downtime_nanos) / 1e9 /
                        static_cast<double>(n);
  };

  auto mark_dead = [&](uint64_t conn_id, const std::string& why) {
    Conn* conn = conn_by_id(conn_id);
    if (conn == nullptr || conn->dead) return;
    conn->dead = true;
    conn->channel->Shutdown();
    bool owned = false;
    const Timestamp now = clock.Now();
    for (RangeState& r : ranges) {
      if (r.owner != conn_id || r.drained) continue;
      owned = true;
      r.owner = 0;
      if (!r.down) {
        r.down = true;
        r.down_since = now;
      }
    }
    if (owned) {
      ++report.worker_deaths;
      std::fprintf(stderr,
                   "gt_coordinator: worker '%s' lost (%s); reassigning\n",
                   conn->worker.empty() ? "?" : conn->worker.c_str(),
                   why.c_str());
    }
  };

  auto assignment_frame = [&](const RangeState& r, FrameType type) {
    Frame f(type);
    f.Set("range", r.range.ToString());
    f.Set("stream", options_.stream);
    f.SetU64("total_shards", options_.total_shards);
    f.SetDouble("rate_eps", options_.rate_eps *
                                static_cast<double>(r.range.width()) /
                                static_cast<double>(options_.total_shards));
    f.Set("checkpoint", r.checkpoint_path);
    f.SetU64("checkpoint_every", options_.checkpoint_every);
    f.SetU64("checkpoint_generations", options_.checkpoint_generations);
    f.Set("out", options_.out_prefix);
    f.Set("honor_controls", options_.honor_controls ? "1" : "0");
    return f;
  };

  auto assign_range = [&](RangeState* r, Conn* conn, FrameType type) {
    const Status sent = SendWithRetry(conn, assignment_frame(*r, type));
    if (!sent.ok()) {
      mark_dead(conn->id, "assignment send failed: " + sent.ToString());
      return false;
    }
    r->owner = conn->id;
    FaultPlan::Global().Hit(kCrashCoordPostAssign);
    return true;
  };

  auto broadcast = [&](const Frame& frame) {
    for (Conn* conn : live_conns()) {
      if (!conn->channel->Send(frame).ok()) {
        // The reader/watchdog will surface the loss; nothing to do here.
      }
    }
  };

  auto release_watermark = [&](uint64_t reporter_conn, uint64_t reported) {
    uint64_t watermark = UINT64_MAX;
    bool any_pending = false;
    for (const RangeState& r : ranges) {
      if (r.drained) continue;
      any_pending = true;
      watermark = std::min(watermark, r.epoch);
    }
    if (any_pending && watermark > released) {
      released = watermark;
      FaultPlan::Global().Hit(kCrashCoordEpochRelease);
      Frame release(FrameType::kEpoch);
      release.SetU64("release", released);
      broadcast(release);
    } else if (reporter_conn != 0 && reported != 0 && reported <= released) {
      // A resumed range re-reporting an already-released epoch gets an
      // instant re-ack instead of waiting for the next fleet advance.
      if (Conn* conn = conn_by_id(reporter_conn); conn && !conn->dead) {
        Frame release(FrameType::kEpoch);
        release.SetU64("release", released);
        (void)conn->channel->Send(release);
      }
    }
  };

  auto handle_frame = [&](uint64_t conn_id, const Frame& frame) {
    Conn* conn = conn_by_id(conn_id);
    if (conn == nullptr || conn->dead) return;
    if (frame.type == FrameType::kHello) {
      conn->worker = frame.Get("worker", "worker-" + std::to_string(conn_id));
      worker_names.insert(conn->worker);
      return;
    }
    RangeState* r = find_range(frame.Get("range"));
    if (r != nullptr && r->owner == conn_id && r->down) {
      // First frame from the range's new owner: the recovery window
      // closes here — this is the MTTR sample.
      downtime_nanos += (clock.Now() - r->down_since).nanos();
      r->down = false;
    }
    switch (frame.type) {
      case FrameType::kHeartbeat:
        if (r != nullptr) {
          if (auto local = frame.GetU64("local"); local.ok()) {
            r->local = *local;
          }
        }
        break;
      case FrameType::kEpoch: {
        auto epoch = frame.GetU64("epoch");
        if (r == nullptr || !epoch.ok()) break;
        r->epoch = std::max(r->epoch, *epoch);
        release_watermark(conn_id, *epoch);
        break;
      }
      case FrameType::kCheckpointAck: {
        if (r == nullptr) break;
        if (auto local = frame.GetU64("local"); local.ok()) r->local = *local;
        if (auto resumed = frame.GetU64("resumed");
            resumed.ok() && *resumed != 0) {
          ++report.resumes;
          if (auto fb = frame.GetU64("fallbacks"); fb.ok()) {
            report.checkpoint_fallbacks += *fb;
          }
        }
        break;
      }
      case FrameType::kDrain: {
        if (r == nullptr || r->drained) break;
        r->drained = true;
        if (auto local = frame.GetU64("local"); local.ok()) {
          r->local_final = *local;
          r->local = *local;
        }
        const auto events = frame.GetU64("events");
        const auto entries = frame.GetU64("entries");
        const auto markers = frame.GetU64("markers");
        const auto controls = frame.GetU64("controls");
        if (events.ok() && entries.ok() && markers.ok() && controls.ok()) {
          if (!have_totals) {
            have_totals = true;
            report.events = *events;
            report.entries = *entries;
            report.markers = *markers;
            report.controls = *controls;
          } else if (report.events != *events ||
                     report.entries != *entries ||
                     report.markers != *markers ||
                     report.controls != *controls) {
            mismatch = Status::Internal(
                "range " + r->range.ToString() +
                " disagrees on global stream totals — the fleet replayed "
                "diverging streams");
          }
        }
        if (auto checkpoints = frame.GetU64("checkpoints");
            checkpoints.ok()) {
          report.checkpoints += *checkpoints;
        }
        if (auto lag = DecodeHistogram(frame.Get("lag")); lag.ok()) {
          report.lag.Merge(*lag);
        }
        // A drained range no longer holds the watermark back.
        release_watermark(0, 0);
        break;
      }
      case FrameType::kError:
        std::fprintf(stderr, "gt_coordinator: worker '%s' error: %s\n",
                     conn->worker.c_str(),
                     frame.Get("reason", "(unspecified)").c_str());
        mark_dead(conn_id, "worker-reported error");
        break;
      default:
        break;
    }
  };

  while (true) {
    if (stopping_.load()) {
      if (telemetry) std::fclose(telemetry);
      return Status::Cancelled("coordinator stopped");
    }
    const Timestamp now = clock.Now();
    if (options_.max_runtime_ms > 0 &&
        (now - start).millis() > options_.max_runtime_ms) {
      if (telemetry) std::fclose(telemetry);
      return Status::Timeout("fleet did not complete within " +
                             std::to_string(options_.max_runtime_ms) +
                             " ms");
    }

    std::vector<Msg> batch;
    {
      std::unique_lock<std::mutex> lock(inbox_mu_);
      inbox_cv_.wait_for(lock, std::chrono::milliseconds(options_.tick_ms),
                         [&] { return !inbox_.empty() || stopping_.load(); });
      while (!inbox_.empty()) {
        batch.push_back(std::move(inbox_.front()));
        inbox_.pop_front();
      }
    }
    for (Msg& msg : batch) {
      switch (msg.kind) {
        case Msg::kFrame:
          handle_frame(msg.conn_id, msg.frame);
          break;
        case Msg::kClosed:
          mark_dead(msg.conn_id, "connection lost: " + msg.status.ToString());
          break;
        case Msg::kHung:
          mark_dead(msg.conn_id,
                    "heartbeat timeout after " +
                        std::to_string(options_.heartbeat_timeout_ms) +
                        " ms");
          break;
      }
    }

    // Initial deal: wait for the configured fleet, then round-robin.
    if (!dealt) {
      auto live = live_conns();
      if (live.size() >= options_.workers) {
        dealt = true;
        for (size_t i = 0; i < ranges.size(); ++i) {
          assign_range(&ranges[i], live[i % live.size()], FrameType::kAssign);
        }
      }
    } else {
      // Reassignment: every orphaned range goes to the live worker owning
      // the fewest ranges (a survivor or a respawned worker).
      for (RangeState& r : ranges) {
        if (r.owner != 0 || r.drained) continue;
        auto live = live_conns();
        if (live.empty()) break;
        Conn* pick = live[0];
        for (Conn* c : live) {
          if (owned_ranges(c->id) < owned_ranges(pick->id)) pick = c;
        }
        if (assign_range(&r, pick, FrameType::kReassign)) {
          ++report.reassignments;
        }
      }
    }

    const bool complete =
        dealt && std::all_of(ranges.begin(), ranges.end(),
                             [](const RangeState& r) { return r.drained; });

    if (telemetry != nullptr) {
      const Timestamp tick = clock.Now();
      if (complete ||
          (tick - tel_last_at).millis() >= options_.telemetry_every_ms) {
        uint64_t sum_local = 0;
        TelemetrySnapshot snap;
        for (const RangeState& r : ranges) {
          const uint64_t local = r.drained ? r.local_final : r.local;
          sum_local += local;
          snap.shard_events.push_back(local);
        }
        tel_events_hwm = std::max(tel_events_hwm, sum_local);
        snap.seq = tel_seq++;
        snap.elapsed_s = (tick - start).seconds();
        snap.events = tel_events_hwm;
        const double dt = (tick - tel_last_at).seconds();
        snap.events_per_sec =
            dt > 0.0 && tel_events_hwm >= tel_last_events
                ? static_cast<double>(tel_events_hwm - tel_last_events) / dt
                : 0.0;
        snap.ComputeImbalance();
        snap.recovery.crashes = report.worker_deaths;
        snap.recovery.resumes = report.resumes;
        snap.recovery.checkpoint_fallbacks = report.checkpoint_fallbacks;
        snap.recovery.reassignments = report.reassignments;
        snap.recovery.downtime_s = static_cast<double>(downtime_nanos) / 1e9;
        snap.recovery.mttr_s = mttr_s();
        std::fprintf(telemetry, "%s\n", snap.ToJsonLine().c_str());
        std::fflush(telemetry);
        tel_last_at = tick;
        tel_last_events = tel_events_hwm;
      }
    }

    if (complete) break;
  }

  // Fleet complete: tell every worker to shut down, then account.
  Frame done(FrameType::kDrain);
  done.Set("fleet", "complete");
  broadcast(done);

  if (telemetry) std::fclose(telemetry);
  if (!mismatch.ok()) return mismatch;

  report.epochs_released = released;
  report.workers_seen = worker_names.size();
  for (const RangeState& r : ranges) report.local_events += r.local_final;
  report.downtime_s = static_cast<double>(downtime_nanos) / 1e9;
  report.mttr_s = mttr_s();
  if (!report.exactly_once()) {
    return Status::Internal(
        "exactly-once accounting failed: ranges delivered " +
        std::to_string(report.local_events) + " local events, stream has " +
        std::to_string(report.events));
  }
  return report;
}

}  // namespace graphtides
