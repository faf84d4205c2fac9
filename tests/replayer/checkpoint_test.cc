#include "replayer/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/crc32.h"
#include "common/random.h"
#include "harness/run_watchdog.h"
#include "replayer/event_sink.h"
#include "replayer/sharded_replayer.h"
#include "stream/event.h"

namespace graphtides {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_checkpoint_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

ReplayCheckpoint SampleCheckpoint() {
  ReplayCheckpoint cp;
  cp.entries_consumed = 1234;
  cp.events_delivered = 1200;
  cp.markers = 30;
  cp.controls = 4;
  cp.rate_factor = 2.5;
  cp.rng_state = {1, 2, 3, 0x123456789abcdef0ULL};
  cp.telemetry.retries = 7;
  cp.telemetry.reconnects = 2;
  cp.telemetry.drops_after_retry = 1;
  cp.telemetry.giveups = 1;
  cp.telemetry.backoff_s = 0.125;
  cp.telemetry.injected_failures = 9;
  cp.telemetry.injected_disconnects = 3;
  cp.telemetry.injected_stalls = 2;
  cp.telemetry.injected_latency_spikes = 5;
  cp.telemetry.stall_s = 1.5;
  return cp;
}

TEST_F(CheckpointTest, TextRoundTripPreservesEveryField) {
  const ReplayCheckpoint cp = SampleCheckpoint();
  auto parsed = ReplayCheckpoint::FromText(cp.ToText());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, cp);
}

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  const ReplayCheckpoint cp = SampleCheckpoint();
  const std::string path = Path("cp.txt");
  ASSERT_TRUE(cp.SaveTo(path).ok());
  // The atomic-rename temp file must not linger.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto loaded = ReplayCheckpoint::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, cp);
}

TEST_F(CheckpointTest, SaveReplacesExistingFileAtomically) {
  ReplayCheckpoint first = SampleCheckpoint();
  const std::string path = Path("cp.txt");
  ASSERT_TRUE(first.SaveTo(path).ok());
  ReplayCheckpoint second = SampleCheckpoint();
  second.entries_consumed = 9999;
  second.events_delivered = 9000;
  ASSERT_TRUE(second.SaveTo(path).ok());
  auto loaded = ReplayCheckpoint::LoadFrom(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->entries_consumed, 9999u);
}

TEST_F(CheckpointTest, RejectsMissingHeader) {
  auto parsed = ReplayCheckpoint::FromText("version=1\nentries_consumed=0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
}

TEST_F(CheckpointTest, RejectsUnsupportedVersion) {
  ReplayCheckpoint cp = SampleCheckpoint();
  cp.version = 99;
  auto parsed = ReplayCheckpoint::FromText(cp.ToText());
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
}

TEST_F(CheckpointTest, RejectsCountsExceedingEntriesConsumed) {
  ReplayCheckpoint cp;
  cp.entries_consumed = 5;
  cp.events_delivered = 4;
  cp.markers = 1;
  cp.controls = 1;  // 4 + 1 + 1 > 5
  auto parsed = ReplayCheckpoint::FromText(cp.ToText());
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
}

TEST_F(CheckpointTest, RejectsNonNumericValueWithKeyContext) {
  auto parsed = ReplayCheckpoint::FromText(
      "# graphtides replay checkpoint\nversion=1\nentries_consumed=abc\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("entries_consumed"),
            std::string::npos);
}

TEST_F(CheckpointTest, SkipsUnknownKeysForForwardCompatibility) {
  // A newer writer adds its keys *before* the crc footer and checksums
  // them like everything else; this reader verifies, then skips them.
  ReplayCheckpoint cp = SampleCheckpoint();
  std::string text = cp.ToText();
  const size_t crc_line = text.rfind("crc32=");
  ASSERT_NE(crc_line, std::string::npos);
  std::string body = text.substr(0, crc_line) + "future_field=42\n";
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32=%08x", Crc32(body));
  auto parsed = ReplayCheckpoint::FromText(body + footer + "\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, cp);
}

TEST_F(CheckpointTest, LoadMissingFileIsIoError) {
  auto loaded = ReplayCheckpoint::LoadFrom(Path("missing.txt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIoError());
}

// ---------------------------------------------------------------------------
// Resume property tests: a run interrupted at a checkpoint and resumed must
// be indistinguishable from an uninterrupted run — same delivered sequence,
// same final counters.
// ---------------------------------------------------------------------------

std::vector<Event> SyntheticStream(size_t graph_events) {
  std::vector<Event> events;
  for (size_t i = 0; i < graph_events; ++i) {
    if (i > 0 && i % 500 == 0) {
      events.push_back(Event::Marker("m" + std::to_string(i)));
    }
    if (i == graph_events / 4) events.push_back(Event::SetRate(2.0));
    if (i == 3 * graph_events / 4) events.push_back(Event::SetRate(4.0));
    events.push_back(Event::AddVertex(static_cast<VertexId>(i),
                                      "p" + std::to_string(i)));
  }
  return events;
}

ShardedReplayerOptions FastOptions() {
  ShardedReplayerOptions options;
  options.total_rate_eps = 1e6;
  return options;
}

struct Collected {
  std::vector<std::string> lines;
  CallbackSink sink;

  Collected()
      : sink([this](const Event& e) {
          lines.push_back(e.ToCsvLine());
          return Status::OK();
        }) {}
};

TEST_F(CheckpointTest, ResumeMatchesUninterruptedRunAtManyBoundaries) {
  const std::vector<Event> events = SyntheticStream(10000);

  Collected baseline;
  ShardedReplayer full(FastOptions());
  auto full_stats = full.Replay(events, {&baseline.sink});
  ASSERT_TRUE(full_stats.ok());
  ASSERT_EQ(full_stats->aggregate.events_delivered, 10000u);
  ASSERT_GT(full_stats->aggregate.markers, 0u);
  ASSERT_EQ(full_stats->aggregate.controls, 2u);

  // Stop points straddle marker and control boundaries.
  for (const uint64_t stop : {1ul, 499ul, 500ul, 2500ul, 2501ul, 5000ul,
                              7500ul, 9999ul}) {
    SCOPED_TRACE("stop_after_events=" + std::to_string(stop));
    const std::string cp_path = Path("resume_" + std::to_string(stop));

    Collected part1;
    ShardedReplayerOptions opts1 = FastOptions();
    opts1.stop_after_events = stop;
    opts1.checkpoint_path = cp_path;
    ShardedReplayer replayer1(opts1);
    auto stats1 = replayer1.Replay(events, {&part1.sink});
    ASSERT_TRUE(stats1.ok());
    EXPECT_TRUE(stats1->aggregate.stopped_early);
    EXPECT_EQ(stats1->aggregate.events_delivered, stop);
    EXPECT_GE(stats1->aggregate.checkpoints_written, 1u);

    auto cp = ReplayCheckpoint::LoadFrom(cp_path);
    ASSERT_TRUE(cp.ok());
    EXPECT_EQ(cp->events_delivered, stop);

    Collected part2;
    ShardedReplayer replayer2(FastOptions());
    auto stats2 = replayer2.Replay(events, {&part2.sink}, &*cp);
    ASSERT_TRUE(stats2.ok());

    // Resumed counters continue from the checkpoint: final totals match the
    // uninterrupted run.
    EXPECT_EQ(stats2->aggregate.events_delivered,
              full_stats->aggregate.events_delivered);
    EXPECT_EQ(stats2->aggregate.markers, full_stats->aggregate.markers);
    EXPECT_EQ(stats2->aggregate.controls, full_stats->aggregate.controls);
    EXPECT_EQ(stats2->aggregate.entries_consumed,
              full_stats->aggregate.entries_consumed);

    // The applied-event set is exactly-once: concatenating both segments
    // reproduces the baseline byte for byte.
    std::vector<std::string> combined = part1.lines;
    combined.insert(combined.end(), part2.lines.begin(), part2.lines.end());
    EXPECT_EQ(combined, baseline.lines);
  }
}

TEST_F(CheckpointTest, PeriodicCheckpointsLeaveResumableFinalRecord) {
  const std::vector<Event> events = SyntheticStream(1000);
  const std::string cp_path = Path("periodic");

  Collected collected;
  ShardedReplayerOptions opts = FastOptions();
  opts.checkpoint_every = 100;
  opts.checkpoint_path = cp_path;
  ShardedReplayer replayer(opts);
  auto stats = replayer.Replay(events, {&collected.sink});
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->aggregate.checkpoints_written, 10u);

  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok());
  // The last periodic checkpoint covers the whole run.
  EXPECT_EQ(cp->events_delivered, 1000u);
  EXPECT_EQ(cp->entries_consumed, stats->aggregate.entries_consumed);
}

TEST_F(CheckpointTest, WatchdogCancelLeavesResumableCheckpoint) {
  const std::vector<Event> events = SyntheticStream(2000);

  Collected baseline;
  ShardedReplayer full(FastOptions());
  ASSERT_TRUE(full.Replay(events, {&baseline.sink}).ok());

  // The sink wedges at the 500th delivery: it stops returning until the
  // watchdog notices the frozen progress counter and fires the token.
  CancellationToken token;
  const std::string cp_path = Path("hung");
  std::vector<std::string> part1;
  CallbackSink stalling([&](const Event& e) {
    part1.push_back(e.ToCsvLine());
    if (part1.size() == 500) {
      while (!token.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return Status::OK();
  });

  ShardedReplayerOptions opts = FastOptions();
  opts.cancel = &token;
  opts.checkpoint_path = cp_path;
  ShardedReplayer replayer(opts);

  WatchdogOptions wd_opts;
  wd_opts.stall_deadline = Duration::FromMillis(100);
  wd_opts.poll_interval = Duration::FromMillis(5);
  RunWatchdog watchdog(wd_opts);
  watchdog.Arm([&] { return replayer.progress(); },
               [&](uint64_t, Duration) {
                 token.RequestCancel("watchdog: no progress");
               });

  auto stats = replayer.Replay(events, {&stalling});
  watchdog.Disarm();
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsCancelled());
  EXPECT_TRUE(watchdog.fired());

  // The abort flushed a checkpoint; resuming from it completes the stream
  // and reproduces the baseline sequence exactly once.
  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->events_delivered, part1.size());

  Collected part2;
  ShardedReplayer resumed(FastOptions());
  auto stats2 = resumed.Replay(events, {&part2.sink}, &*cp);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->aggregate.events_delivered, 2000u);

  std::vector<std::string> combined = part1;
  combined.insert(combined.end(), part2.lines.begin(), part2.lines.end());
  EXPECT_EQ(combined, baseline.lines);
}

TEST_F(CheckpointTest, TelemetryBaselineCarriesAcrossResume) {
  const std::vector<Event> events = SyntheticStream(100);
  ReplayCheckpoint cp;  // resume from the very start, with prior telemetry
  cp.telemetry.retries = 5;
  cp.telemetry.backoff_s = 1.5;

  Collected collected;
  ShardedReplayer replayer(FastOptions());
  auto stats = replayer.Replay(events, {&collected.sink}, &cp);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->aggregate.telemetry.retries, 5u);
  EXPECT_DOUBLE_EQ(stats->aggregate.telemetry.backoff_s, 1.5);
}

TEST_F(CheckpointTest, CheckpointRngStateRestoredOnResume) {
  const std::vector<Event> events = SyntheticStream(100);
  const std::string cp_path = Path("rng");

  Rng original(7);
  Collected part1;
  ShardedReplayerOptions opts1 = FastOptions();
  opts1.stop_after_events = 10;
  opts1.checkpoint_path = cp_path;
  opts1.checkpoint_rng = &original;
  ShardedReplayer replayer1(opts1);
  ASSERT_TRUE(replayer1.Replay(events, {&part1.sink}).ok());

  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok());

  // A differently seeded RNG handed to the resumed run must be overwritten
  // with the checkpointed state.
  Rng restored(99);
  Collected part2;
  ShardedReplayerOptions opts2 = FastOptions();
  opts2.checkpoint_rng = &restored;
  ShardedReplayer replayer2(opts2);
  ASSERT_TRUE(replayer2.Replay(events, {&part2.sink}, &*cp).ok());

  Rng reference(7);
  EXPECT_EQ(restored.NextU64(), reference.NextU64());
}

TEST_F(CheckpointTest, ResumeBeyondEndOfStreamIsInvalidArgument) {
  const std::vector<Event> events = SyntheticStream(50);
  ReplayCheckpoint cp;
  cp.entries_consumed = 1000;
  cp.events_delivered = 1000;

  Collected collected;
  ShardedReplayer replayer(FastOptions());
  auto stats = replayer.Replay(events, {&collected.sink}, &cp);
  ASSERT_FALSE(stats.ok());
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Sharded checkpoint/resume: the hash partition is deterministic, so a
// sharded run interrupted mid-epoch and resumed with fresh sinks must
// concatenate byte-identically with the uninterrupted sharded run in every
// lane, and the final counters must match.
// ---------------------------------------------------------------------------

struct ShardedCollected {
  std::vector<std::vector<std::string>> lane_lines;
  std::vector<std::unique_ptr<CallbackSink>> sinks;
  std::vector<EventSink*> sink_ptrs;

  explicit ShardedCollected(size_t shards) : lane_lines(shards) {
    for (size_t s = 0; s < shards; ++s) {
      sinks.push_back(std::make_unique<CallbackSink>([this, s](const Event& e) {
        lane_lines[s].push_back(e.ToCsvLine());
        return Status::OK();
      }));
      sink_ptrs.push_back(sinks.back().get());
    }
  }
};

ShardedReplayerOptions FastShardedOptions(size_t shards) {
  ShardedReplayerOptions options;
  options.shards = shards;
  options.total_rate_eps = 4e6;
  return options;
}

TEST_F(CheckpointTest, ShardedResumeConcatenatesByteIdenticallyPerLane) {
  constexpr size_t kShards = 4;
  const std::vector<Event> events = SyntheticStream(4000);

  ShardedCollected baseline(kShards);
  ShardedReplayer full(FastShardedOptions(kShards));
  auto full_stats = full.Replay(events, baseline.sink_ptrs);
  ASSERT_TRUE(full_stats.ok()) << full_stats.status();
  ASSERT_EQ(full_stats->aggregate.events_delivered, 4000u);

  // Stop points deliberately straddle marker/control epochs and batch
  // boundaries (1777 is mid-epoch and mid-batch).
  for (const uint64_t stop : {1ul, 500ul, 1777ul, 3500ul}) {
    SCOPED_TRACE("stop_after_events=" + std::to_string(stop));
    const std::string cp_path = Path("sharded_resume_" + std::to_string(stop));

    ShardedCollected part1(kShards);
    ShardedReplayerOptions opts1 = FastShardedOptions(kShards);
    opts1.stop_after_events = stop;
    opts1.checkpoint_path = cp_path;
    ShardedReplayer replayer1(opts1);
    auto stats1 = replayer1.Replay(events, part1.sink_ptrs);
    ASSERT_TRUE(stats1.ok()) << stats1.status();
    EXPECT_TRUE(stats1->aggregate.stopped_early);
    EXPECT_EQ(stats1->aggregate.events_delivered, stop);

    auto cp = ReplayCheckpoint::LoadFrom(cp_path);
    ASSERT_TRUE(cp.ok()) << cp.status();
    EXPECT_EQ(cp->events_delivered, stop);

    ShardedCollected part2(kShards);
    ShardedReplayer replayer2(FastShardedOptions(kShards));
    auto stats2 = replayer2.Replay(events, part2.sink_ptrs, &*cp);
    ASSERT_TRUE(stats2.ok()) << stats2.status();

    EXPECT_EQ(stats2->aggregate.events_delivered,
              full_stats->aggregate.events_delivered);
    EXPECT_EQ(stats2->aggregate.markers, full_stats->aggregate.markers);
    EXPECT_EQ(stats2->aggregate.controls, full_stats->aggregate.controls);
    EXPECT_EQ(stats2->aggregate.entries_consumed,
              full_stats->aggregate.entries_consumed);

    for (size_t s = 0; s < kShards; ++s) {
      std::vector<std::string> combined = part1.lane_lines[s];
      combined.insert(combined.end(), part2.lane_lines[s].begin(),
                      part2.lane_lines[s].end());
      EXPECT_EQ(combined, baseline.lane_lines[s]) << "lane " << s;
    }
  }
}

TEST_F(CheckpointTest, ShardedPeriodicCheckpointsAreQuiescedAndFinal) {
  constexpr size_t kShards = 4;
  const std::vector<Event> events = SyntheticStream(2000);
  const std::string cp_path = Path("sharded_periodic");

  ShardedCollected collected(kShards);
  ShardedReplayerOptions opts = FastShardedOptions(kShards);
  opts.checkpoint_every = 250;
  opts.checkpoint_path = cp_path;
  ShardedReplayer replayer(opts);
  auto stats = replayer.Replay(events, collected.sink_ptrs);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // 8 periodic barrier checkpoints plus the final record.
  EXPECT_GE(stats->aggregate.checkpoints_written, 9u);

  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->events_delivered, 2000u);
  EXPECT_EQ(cp->entries_consumed, stats->aggregate.entries_consumed);
}

// ---------------------------------------------------------------------------
// Generation-rotation boundaries. The randomized torn/corrupt fallback
// sweeps live in checkpoint_fuzz_test.cc; these pin the exact edges: the
// very first save into an empty store, saving at exactly the configured
// generation count, and a middle generation that exists but cannot be
// read at all (as opposed to parsing badly).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, FirstSaveIntoEmptyStoreCreatesOnlyGenerationZero) {
  const std::string base = Path("gen_first");
  CheckpointStore store({base, /*generations=*/3});
  ReplayCheckpoint cp = SampleCheckpoint();
  ASSERT_TRUE(store.Save(cp).ok());

  // Rotating zero prior generations must not conjure phantom slots.
  EXPECT_TRUE(std::filesystem::exists(CheckpointStore::GenerationPath(base, 0)));
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(base, 1)));
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(base, 2)));

  auto loaded = CheckpointStore::LoadLatestGood(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->checkpoint, cp);
  EXPECT_EQ(loaded->generation, 0u);
  EXPECT_EQ(loaded->fallbacks, 0u);
  EXPECT_TRUE(loaded->rejected.empty());
}

TEST_F(CheckpointTest, SingleGenerationStoreOverwritesInPlace) {
  const std::string base = Path("gen_single");
  CheckpointStore store({base, /*generations=*/1});
  for (const uint64_t n : {100u, 200u, 300u}) {
    ReplayCheckpoint cp;
    cp.entries_consumed = n;
    ASSERT_TRUE(store.Save(cp).ok());
  }
  // Classic single-file behavior: no ".1" sibling ever appears.
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(base, 1)));
  auto loaded = CheckpointStore::LoadLatestGood(base);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint.entries_consumed, 300u);
}

TEST_F(CheckpointTest, RotationAtExactlyMaxGenerationsDropsOldest) {
  const std::string base = Path("gen_max");
  CheckpointStore store({base, /*generations=*/3});
  auto save = [&](uint64_t n) {
    ReplayCheckpoint cp;
    cp.entries_consumed = n;
    ASSERT_TRUE(store.Save(cp).ok());
  };
  auto slot = [&](size_t g) {
    auto cp = ReplayCheckpoint::LoadFrom(CheckpointStore::GenerationPath(base, g));
    EXPECT_TRUE(cp.ok()) << "generation " << g << ": " << cp.status();
    return cp.ok() ? cp->entries_consumed : 0u;
  };

  // The third save fills the store to exactly its configured capacity.
  save(100);
  save(200);
  save(300);
  EXPECT_EQ(slot(0), 300u);
  EXPECT_EQ(slot(1), 200u);
  EXPECT_EQ(slot(2), 100u);
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(base, 3)));

  // The save after the boundary discards the oldest; capacity never grows.
  save(400);
  EXPECT_EQ(slot(0), 400u);
  EXPECT_EQ(slot(1), 300u);
  EXPECT_EQ(slot(2), 200u);
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(base, 3)));
}

TEST_F(CheckpointTest, UnreadableMiddleGenerationFallsBackToOlder) {
  const std::string base = Path("gen_unreadable");
  CheckpointStore store({base, /*generations=*/3});
  ReplayCheckpoint oldest;
  oldest.entries_consumed = 100;
  ReplayCheckpoint middle;
  middle.entries_consumed = 200;
  ReplayCheckpoint newest;
  newest.entries_consumed = 300;
  ASSERT_TRUE(store.Save(oldest).ok());
  ASSERT_TRUE(store.Save(middle).ok());
  ASSERT_TRUE(store.Save(newest).ok());

  // Generation 0 is torn; generation 1 exists but cannot be read (a
  // directory stands in for an unreadable file — permission bits are no
  // barrier when tests run as root). The loader must fall back past BOTH
  // failure kinds to the intact generation 2.
  {
    std::ofstream torn(CheckpointStore::GenerationPath(base, 0),
                       std::ios::binary | std::ios::trunc);
    torn << "# graphtides replay checkpoint\nversion=2\nentries_cons";
  }
  const std::string mid_path = CheckpointStore::GenerationPath(base, 1);
  std::filesystem::remove(mid_path);
  std::filesystem::create_directory(mid_path);

  auto loaded = CheckpointStore::LoadLatestGood(base);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->checkpoint.entries_consumed, 100u);
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->fallbacks, 2u);
  EXPECT_EQ(loaded->rejected.size(), 2u);
}

TEST_F(CheckpointTest, ShardedCheckpointRecordsMidStreamRateFactor) {
  constexpr size_t kShards = 2;
  // SyntheticStream raises the factor to 2.0 at the quarter mark, so a
  // checkpoint taken past it must carry factor 2.0 for the resumed lanes.
  const std::vector<Event> events = SyntheticStream(2000);
  const std::string cp_path = Path("sharded_factor");

  ShardedCollected collected(kShards);
  ShardedReplayerOptions opts = FastShardedOptions(kShards);
  opts.stop_after_events = 1200;
  opts.checkpoint_path = cp_path;
  ShardedReplayer replayer(opts);
  ASSERT_TRUE(replayer.Replay(events, collected.sink_ptrs).ok());

  auto cp = ReplayCheckpoint::LoadFrom(cp_path);
  ASSERT_TRUE(cp.ok());
  EXPECT_DOUBLE_EQ(cp->rate_factor, 2.0);
}

}  // namespace
}  // namespace graphtides
