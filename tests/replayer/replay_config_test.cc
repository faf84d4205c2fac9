#include "replayer/replay_config.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"
#include "replayer/sharded_replayer.h"
#include "stream/event.h"

namespace graphtides {
namespace {

// The rejection reason, or "" when the cell is supported.
std::string Reason(const ShardedReplayerOptions& options,
                   const ReplaySinkPlan& sinks) {
  const Status status = ValidateReplayConfig(options, sinks);
  if (status.ok()) return "";
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  return status.message();
}

TEST(ReplayConfigTest, DefaultsAreSupported) {
  EXPECT_EQ(Reason({}, {}), "");
  ShardedReplayerOptions options;
  options.wire_format = WireFormat::kV2;
  options.checkpoint_every = 10;
  options.checkpoint_path = "ck";
  EXPECT_EQ(Reason(options, {.tcp = true}), "");
}

TEST(ReplayConfigTest, OptionRulesNameTheirFlag) {
  ShardedReplayerOptions options;
  options.total_rate_eps = 0.0;
  EXPECT_EQ(Reason(options, {}), "--rate must be positive");
  options = {};
  options.shards = 0;
  EXPECT_EQ(Reason(options, {}), "--shards must be >= 1");
  options = {};
  options.checkpoint_generations = 0;
  EXPECT_EQ(Reason(options, {}), "--checkpoint-generations must be >= 1");
  options = {};
  options.checkpoint_every = 5;
  EXPECT_EQ(Reason(options, {}),
            "--checkpoint-every requires --checkpoint-file");
  options = {};
  options.shards = 2;
  options.total_shards = 4;
  options.shard_offset = 3;
  EXPECT_EQ(Reason(options, {}), "shard range [3, 5) exceeds total_shards 4");
}

TEST(ReplayConfigTest, SinkRulesNameTheirFlags) {
  const ShardedReplayerOptions csv;
  EXPECT_EQ(Reason(csv, {.chaos_disconnect = true}).rfind(
                "--chaos-disconnect requires --tcp", 0),
            0u);
  EXPECT_EQ(Reason(csv, {.tcp = true, .chaos_disconnect = true}), "");
  EXPECT_EQ(Reason(csv, {.tcp = true, .files = true}),
            "--out and --tcp are mutually exclusive");
  // Decorators and resumes are supported on the CSV wire.
  EXPECT_EQ(Reason(csv, {.files = true, .decorated = true, .resume = true}),
            "");

  ShardedReplayerOptions v2;
  v2.wire_format = WireFormat::kV2;
  EXPECT_EQ(Reason(v2, {.resume = true}).rfind(
                "--wire-format v2 cannot be combined with --resume-from", 0),
            0u);
  EXPECT_EQ(Reason(v2, {.decorated = true})
                .rfind("--wire-format v2 cannot be combined with decorated "
                       "sinks",
                       0),
            0u);
  EXPECT_EQ(Reason(v2, {.files = true}), "");
  v2.checkpoint_every = 10;
  v2.checkpoint_path = "ck";
  EXPECT_EQ(Reason(v2, {.files = true})
                .rfind("--wire-format v2 cannot be combined with checkpointed "
                       "--out runs",
                       0),
            0u);
}

// The replayer applies the same rules, so a library caller gets the
// reason the tool prints.
TEST(ReplayConfigTest, ReplayerRejectsWithTheSameReason) {
  const std::vector<Event> events = {Event::AddVertex(1)};
  NullSink sink;
  ShardedReplayerOptions options;
  options.wire_format = WireFormat::kV2;
  ReplayCheckpoint resume;
  auto stats = ShardedReplayer(options).Replay(events, {&sink}, &resume);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().ToString(),
            ValidateReplayConfig(options, {.resume = true}).ToString());

  options = {};
  options.checkpoint_every = 1;
  stats = ShardedReplayer(options).Replay(events, {&sink});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().message(),
            "--checkpoint-every requires --checkpoint-file");
}

}  // namespace
}  // namespace graphtides
