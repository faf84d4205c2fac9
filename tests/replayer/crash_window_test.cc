// Crash-window tests: a real fork()ed child runs a replay over file sinks
// with an armed FaultPlan, SIGKILLs itself inside a named crash window,
// and the parent resumes from the last good checkpoint generation —
// truncating each output file to its checkpointed byte offset first. The
// concatenated bytes must equal an uninterrupted golden run: the
// exactly-once contract, proven against an actual process death rather
// than a cooperative stop.
//
// Windows covered:
//   post-delivery          between a sink ack and the accounting update
//   pre-checkpoint-rename  between quiesced-checkpoint write and publish
//   epoch-barrier          inside a cross-shard barrier completion
//
// Note: raw fork(), not gtest death tests — the child must run the real
// replayer (threads and all) and die by SIGKILL, not by exit(). The
// fixture name deliberately avoids the TSan CI job's suite filter; fork
// in an instrumented multi-threaded parent is out of scope there.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_plan.h"
#include "replayer/checkpoint.h"
#include "replayer/event_sink.h"
#include "replayer/lane_outputs.h"
#include "replayer/sharded_replayer.h"
#include "stream/event.h"
#include "stream/stream_file.h"

namespace graphtides {
namespace {

class CrashWindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_crash_window_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    stream_path_ = Path("stream.gts");
    std::vector<Event> events;
    for (size_t i = 0; i < 2000; ++i) {
      if (i > 0 && i % 400 == 0) {
        events.push_back(
            Event::Marker(std::string("m").append(std::to_string(i))));
      }
      events.push_back(
          Event::AddVertex(static_cast<VertexId>(i),
                           std::string("p").append(std::to_string(i))));
    }
    ASSERT_TRUE(WriteStreamFile(stream_path_, events).ok());
  }
  void TearDown() override {
    FaultPlan::Global().Reset();
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  }

  /// Runs one replay over per-shard PipeSink files, in this process.
  /// Returns the replay status.
  Status RunReplay(const std::string& out_prefix, size_t shards,
                   const std::string& checkpoint_path,
                   const ReplayCheckpoint* resume) {
    std::vector<std::string> paths;
    for (size_t s = 0; s < shards; ++s) {
      paths.push_back(LaneOutputPath(out_prefix, s, shards));
    }
    GT_ASSIGN_OR_RETURN(LaneOutputs outputs, OpenLaneOutputs(paths, resume));
    ShardedReplayerOptions options;
    options.shards = shards;
    options.total_rate_eps = 1e6 * static_cast<double>(shards);
    if (!checkpoint_path.empty()) {
      options.checkpoint_path = checkpoint_path;
      options.checkpoint_every = 300;
      options.checkpoint_generations = 3;
      options.record_sink_bytes = true;
    }
    ShardedReplayer replayer(options);
    return replayer.ReplayFile(stream_path_, outputs.sinks(), resume)
        .status();
  }

  /// Fork a child that arms `fault_spec` and runs the replay; it must die
  /// by SIGKILL inside the armed window. stdio is not flushed by the kill,
  /// exactly like a real crash.
  void RunCrashingChild(const std::string& fault_spec,
                        const std::string& out_prefix, size_t shards,
                        const std::string& checkpoint_path) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: no gtest reporting, no exit handlers — arm, replay, die.
      if (!FaultPlan::Global().Configure(fault_spec).ok()) ::_exit(3);
      (void)RunReplay(out_prefix, shards, checkpoint_path, nullptr);
      // Reaching here means the crash point never fired.
      ::_exit(4);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "child did not die by signal (status " << wstatus << ")";
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);
  }

  /// Load newest good generation, resume in-process (which truncates the
  /// outputs to the checkpointed byte offsets), and require byte equality
  /// with the golden run for every lane. The crash may have delivered past
  /// the checkpoint (and lost tail bytes to the stdio buffer): each file is
  /// only guaranteed to hold at least the checkpointed prefix.
  void ResumeAndVerify(const std::string& out_prefix, size_t shards,
                       const std::string& checkpoint_path,
                       const std::string& golden_prefix) {
    auto loaded = CheckpointStore::LoadLatestGood(checkpoint_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded->checkpoint.sink_bytes.size(), shards);
    const Status resumed =
        RunReplay(out_prefix, shards, checkpoint_path, &loaded->checkpoint);
    ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(ReadAll(LaneOutputPath(out_prefix, s, shards)),
                ReadAll(LaneOutputPath(golden_prefix, s, shards)))
          << "lane " << s;
    }
  }

  void RunGolden(const std::string& prefix, size_t shards) {
    const Status status = RunReplay(prefix, shards, "", nullptr);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  std::filesystem::path dir_;
  std::string stream_path_;
};

TEST_F(CrashWindowTest, SingleShardKilledBetweenSinkAckAndAccounting) {
  RunGolden(Path("golden"), 1);
  // Die after the 1000th delivery was acked but before it was counted:
  // the checkpointed accounting must still be exactly-once on resume.
  RunCrashingChild("crash=post-delivery:1000", Path("out"), 1, Path("cp"));
  ResumeAndVerify(Path("out"), 1, Path("cp"), Path("golden"));
}

TEST_F(CrashWindowTest, SingleShardKilledBeforeCheckpointRename) {
  RunGolden(Path("golden"), 1);
  // Die between the quiesced checkpoint write and its rename publish: the
  // durable state is the *previous* generation, and the resume must not
  // double-deliver anything the unpublished record counted.
  RunCrashingChild("crash=pre-checkpoint-rename:3", Path("out"), 1,
                   Path("cp"));
  ResumeAndVerify(Path("out"), 1, Path("cp"), Path("golden"));
}

TEST_F(CrashWindowTest, ShardedKilledBeforeCheckpointRename) {
  constexpr size_t kShards = 4;
  RunGolden(Path("golden4"), kShards);
  RunCrashingChild("crash=pre-checkpoint-rename:2", Path("out4"), kShards,
                   Path("cp4"));
  ResumeAndVerify(Path("out4"), kShards, Path("cp4"), Path("golden4"));
}

TEST_F(CrashWindowTest, ShardedKilledInsideEpochBarrier) {
  constexpr size_t kShards = 4;
  RunGolden(Path("goldenb"), kShards);
  // Die during a cross-shard barrier completion, all lanes quiesced: the
  // per-lane byte offsets in the last published checkpoint must still
  // reconstruct every lane exactly-once.
  RunCrashingChild("crash=epoch-barrier:3", Path("outb"), kShards,
                   Path("cpb"));
  ResumeAndVerify(Path("outb"), kShards, Path("cpb"), Path("goldenb"));
}

TEST_F(CrashWindowTest, TornCheckpointPublishFallsBackAGeneration) {
  RunGolden(Path("goldent"), 1);
  // The checkpoint being published is torn to a seeded fraction before the
  // kill: resume must reject it and fall back to the intact ancestor.
  RunCrashingChild("torn=pre-checkpoint-rename:3,seed=5", Path("outt"), 1,
                   Path("cpt"));
  auto loaded = CheckpointStore::LoadLatestGood(Path("cpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GE(loaded->fallbacks, 1u);
  EXPECT_FALSE(loaded->rejected.empty());
  ResumeAndVerify(Path("outt"), 1, Path("cpt"), Path("goldent"));
}

}  // namespace
}  // namespace graphtides
