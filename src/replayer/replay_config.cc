#include "replayer/replay_config.h"

#include <string>

namespace graphtides {

Status ValidateReplayConfig(const ShardedReplayerOptions& options,
                            const ReplaySinkPlan& sinks) {
  if (options.total_rate_eps <= 0.0) {
    return Status::InvalidArgument("--rate must be positive");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  if (options.checkpoint_generations == 0) {
    return Status::InvalidArgument("--checkpoint-generations must be >= 1");
  }
  if (options.checkpoint_every > 0 && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every requires --checkpoint-file");
  }
  const size_t hash_shards =
      options.total_shards == 0 ? options.shards : options.total_shards;
  if (options.shard_offset + options.shards > hash_shards) {
    return Status::InvalidArgument(
        "shard range [" + std::to_string(options.shard_offset) + ", " +
        std::to_string(options.shard_offset + options.shards) +
        ") exceeds total_shards " + std::to_string(hash_shards));
  }
  if (sinks.chaos_disconnect && !sinks.tcp) {
    return Status::InvalidArgument(
        "--chaos-disconnect requires --tcp: only a TCP sink can be "
        "disconnected");
  }
  if (sinks.files && sinks.tcp) {
    return Status::InvalidArgument("--out and --tcp are mutually exclusive");
  }
  if (options.wire_format == WireFormat::kV2) {
    // A resume truncates sink files to the checkpointed offset, and a fresh
    // sink would re-emit the v2 preamble mid-file; CSV stays the golden
    // resumable wire format.
    if (sinks.resume) {
      return Status::InvalidArgument(
          "--wire-format v2 cannot be combined with --resume-from; "
          "resume runs must use the CSV wire format");
    }
    if (sinks.files && options.checkpoint_every > 0) {
      return Status::InvalidArgument(
          "--wire-format v2 cannot be combined with checkpointed --out runs "
          "(the checkpoint's sink byte offsets are only resumable over CSV)");
    }
    // Faults and retries operate on the per-event path, so a decorated
    // chain declines v2 and would silently stay on CSV.
    if (sinks.decorated) {
      return Status::InvalidArgument(
          "--wire-format v2 cannot be combined with decorated sinks "
          "(--chaos-*, --retry-*, --deliver-timeout-ms, --on-failure or a "
          "fault-plan fail= point): they deliver only the CSV wire format");
    }
  }
  return Status::OK();
}

Status ValidateReplayHarness(const ReplayHarnessPlan& plan) {
  if (plan.telemetry_period <= Duration::Zero()) {
    return Status::InvalidArgument("--telemetry-period-ms must be positive");
  }
  if (plan.telemetry_sample == 0) {
    return Status::InvalidArgument("--telemetry-sample must be >= 1");
  }
  if (plan.watchdog < Duration::Zero()) {
    return Status::InvalidArgument(
        "--watchdog-ms must be >= 0 (0 disables the watchdog)");
  }
  if (plan.chaos_stall < Duration::Zero()) {
    return Status::InvalidArgument("--chaos-stall-ms must be >= 0");
  }
  return Status::OK();
}

}  // namespace graphtides
