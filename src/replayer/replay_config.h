// The one place that decides whether a replay configuration is supported.
// A cell is either accepted or rejected up front with a named reason;
// nothing is decided later by a note on stderr. gt_replay calls the
// validator before it opens its input or its sinks, and
// ShardedReplayer::Run calls it for the option rules, so a library caller
// and the tool get the same reason. Reasons name the gt_replay flag that
// sets each option.
#ifndef GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_
#define GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_

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

}  // namespace graphtides

#endif  // GRAPHTIDES_REPLAYER_REPLAY_CONFIG_H_
