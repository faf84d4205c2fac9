// The one place that decides whether a replay configuration is supported.
// A cell is either accepted or rejected up front with a named reason;
// nothing is decided later by a note on stderr. gt_replay calls the
// validator before it opens its input or its sinks, and
// ShardedReplayer::Run calls it for the option rules, so a library caller
// and the tool get the same reason. Reasons name the gt_replay flag that
// sets each option.
#ifndef GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_
#define GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_

#include <cstdint>

#include "common/clock.h"
#include "common/status.h"
#include "replayer/sharded_replayer.h"

namespace graphtides {

/// \brief What the caller knows about the sink chains behind the lanes.
/// Every lane delivers to stdout unless `tcp` or `files` is set.
struct ReplaySinkPlan {
  /// Lanes deliver over TCP connections (gt_replay --tcp).
  bool tcp = false;
  /// Lanes write per-lane output files (gt_replay --out).
  bool files = false;
  /// Chaos or resilience decorators wrap the transport (--chaos-*,
  /// --retry-*, --deliver-timeout-ms, --on-failure, fault-plan fail=
  /// points).
  bool decorated = false;
  /// The chaos schedule severs connections (--chaos-disconnect > 0).
  bool chaos_disconnect = false;
  /// The run resumes from a checkpoint (--resume-from).
  bool resume = false;
};

/// \brief OK when `options` over sinks like `sinks` is a supported replay,
/// else InvalidArgument naming the first rule it breaks.
Status ValidateReplayConfig(const ShardedReplayerOptions& options,
                            const ReplaySinkPlan& sinks);

/// \brief The monitors and faults a tool runs around the lanes. A period or
/// sample rate of 0 would be replaced by a default, and a negative
/// duration would read as "off", so both are refused instead.
struct ReplayHarnessPlan {
  /// Between telemetry snapshots (--telemetry-period-ms); must be > 0.
  Duration telemetry_period = Duration::FromMillis(500);
  /// One in this many events is timed (--telemetry-sample); must be >= 1.
  uint32_t telemetry_sample = 1;
  /// Stall deadline (--watchdog-ms); 0 runs no watchdog.
  Duration watchdog = Duration::Zero();
  /// Length of an injected stall (--chaos-stall-ms).
  Duration chaos_stall = Duration::Zero();
};

/// \brief OK when every setting of `plan` is used as given, else
/// InvalidArgument naming the flag that sets the first one that is not.
Status ValidateReplayHarness(const ReplayHarnessPlan& plan);

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_
