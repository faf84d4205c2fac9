// Fleet coordinator (`gt_coordinator`): accepts replay workers, deals
// disjoint shard ranges, drives the cross-process epoch barrier as a
// watermark broadcast, merges per-range telemetry losslessly, and — the
// robustness core — detects worker death (EOF) or hang (heartbeat timeout)
// and reassigns the dead worker's range to a survivor (or a respawned
// worker), which resumes byte-exactly from the range's last durable
// checkpoint. MTTR is measured from death detection to the first frame
// from the range's new owner.
#ifndef GRAPHTIDES_DISTRIBUTED_COORDINATOR_H_
#define GRAPHTIDES_DISTRIBUTED_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "distributed/control_channel.h"
#include "distributed/protocol.h"
#include "harness/telemetry/latency_histogram.h"

namespace graphtides {

struct CoordinatorOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is returned by Start()).
  uint16_t port = 0;

  /// Stream file every worker replays (workers filter to their range).
  std::string stream;
  /// Global hash-partition width — must match the single-process golden's
  /// --shards for byte-exact comparison.
  uint32_t total_shards = 2;
  /// Contiguous shard ranges dealt to workers (0 = one per worker).
  uint32_t ranges = 0;
  /// Fleet size: initial assignment happens once this many workers have
  /// said HELLO.
  size_t workers = 2;

  /// Aggregate fleet emission rate in events/second (a range is assigned
  /// its proportional share).
  double rate_eps = 10000.0;
  /// Per-range checkpoint store: `<checkpoint_prefix>.range<b>-<e>`.
  std::string checkpoint_prefix;
  uint64_t checkpoint_every = 5000;
  uint64_t checkpoint_generations = 3;
  /// Per-lane output prefix: global shard s writes `<out_prefix>.shard<s>`.
  std::string out_prefix;
  bool honor_controls = true;

  /// A connection with no frames for this long is declared dead. The main
  /// loop checks it every tick against the time it last handled a frame
  /// from that connection, so detection lags by about one tick_ms.
  int heartbeat_timeout_ms = 2000;
  /// Main-loop cadence: reassignment scans and telemetry emission.
  int tick_ms = 100;
  /// Abort the whole run after this long (0 = unbounded) — the campaign
  /// safety net for a fleet that can never complete.
  int max_runtime_ms = 0;

  /// Control-plane send retry budget (exponential backoff with jitter
  /// between attempts; exhausting it marks the worker dead).
  int send_attempts = 3;
  uint64_t backoff_seed = 1;

  /// Optional gt-telemetry-v1 JSONL sidecar with the fleet recovery block
  /// (crashes, reassignments, downtime, MTTR).
  std::string telemetry_out;
  int telemetry_every_ms = 500;
};

/// \brief Final fleet accounting, merged from per-range DRAIN frames.
struct FleetReport {
  /// Global stream totals (identical on every range by construction).
  uint64_t events = 0;
  uint64_t entries = 0;
  uint64_t markers = 0;
  uint64_t controls = 0;
  /// Sum of per-range local delivered counts; exactly-once accounting
  /// requires local_events == events.
  uint64_t local_events = 0;
  /// Checkpoints written across the fleet (sum).
  uint64_t checkpoints = 0;
  /// Highest epoch released fleet-wide.
  uint64_t epochs_released = 0;

  uint64_t workers_seen = 0;
  uint64_t worker_deaths = 0;
  uint64_t reassignments = 0;
  uint64_t resumes = 0;
  uint64_t checkpoint_fallbacks = 0;
  /// Closed downtime across reassignments, seconds.
  double downtime_s = 0.0;
  /// downtime_s / (resumes + reassignments); 0 when no recoveries.
  double mttr_s = 0.0;

  /// Merged per-event emission lag across all ranges (lossless).
  LatencyHistogram lag;

  /// Σ range local == global events: every event delivered exactly once.
  bool exactly_once() const { return events > 0 && local_events == events; }

  std::string ToString() const;
};

/// \brief OK when `options` describe a fleet the coordinator can run: the
/// required inputs are set, the telemetry period passes
/// ValidateReplayHarness, and the replay options it deals pass
/// ValidateReplayConfig, so a bad rate or checkpoint setting is rejected
/// before any worker dials in instead of inside every worker.
Status ValidateCoordinatorOptions(const CoordinatorOptions& options);

/// \brief The control-plane server. Start() binds and begins accepting;
/// Run() blocks until every range drains (or Stop()/max_runtime aborts).
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Checks the options (ValidateCoordinatorOptions), binds the listener
  /// and starts the accept thread; returns the port.
  Result<uint16_t> Start();
  Result<FleetReport> Run();
  /// Thread-safe abort: Run returns Cancelled at the next tick.
  void Stop();

  uint16_t port() const { return listener_.port(); }

 private:
  struct Conn;
  struct RangeState;
  struct Msg;

  Result<FleetReport> RunLoop();
  void AcceptLoop();
  void ReadLoop(Conn* conn);
  void PostMsg(Msg msg);
  /// Bounded control-plane send: retries with jittered exponential
  /// backoff; the caller marks the worker dead on final failure.
  Status SendWithRetry(Conn* conn, const Frame& frame);
  /// Joins the accept thread, shuts every channel down, joins readers.
  void ShutdownFleet();

  CoordinatorOptions options_;
  /// Jitter source for SendWithRetry (main loop thread only).
  Rng send_rng_;
  ControlListener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;
  std::deque<Msg> inbox_;
};

}  // namespace graphtides

#endif  // GRAPHTIDES_DISTRIBUTED_COORDINATOR_H_
