// In-process fleet tests: a Coordinator plus ReplayWorkers running as
// threads over real localhost sockets must reproduce the single-process
// ShardedReplayer's per-lane output byte-for-byte with exactly-once
// accounting — including after a worker vanishes mid-run and its range is
// reassigned to the survivor. (Real SIGKILL drills with separate processes
// live in gt_chaos --workers and CI's distributed-smoke job.)
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "distributed/control_channel.h"
#include "distributed/coordinator.h"
#include "distributed/protocol.h"
#include "distributed/worker.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "replayer/event_sink.h"
#include "replayer/sharded_replayer.h"
#include "stream/stream_file.h"

namespace graphtides {
namespace {

constexpr size_t kTotalShards = 4;

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_fleet_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    SocialNetworkModel model;
    StreamGeneratorOptions gen;
    gen.rounds = 1500;
    gen.seed = 21;
    gen.marker_interval = 200;
    auto generated = StreamGenerator(&model, gen).Generate();
    ASSERT_TRUE(generated.ok());
    ASSERT_TRUE(WriteStreamFile(Path("stream.gts"), generated->events).ok());

    // Single-process golden: same shard width, one process, no fleet.
    std::vector<std::FILE*> files;
    std::vector<std::unique_ptr<PipeSink>> sinks;
    std::vector<EventSink*> lanes;
    for (size_t s = 0; s < kTotalShards; ++s) {
      std::FILE* f = std::fopen(GoldenLane(s).c_str(), "wb");
      ASSERT_NE(f, nullptr);
      files.push_back(f);
      sinks.push_back(std::make_unique<PipeSink>(f));
      lanes.push_back(sinks.back().get());
    }
    ShardedReplayerOptions options;
    options.shards = kTotalShards;
    options.total_rate_eps = 1e6;
    ShardedReplayer golden(options);
    auto stats = golden.ReplayFile(Path("stream.gts"), lanes);
    for (std::FILE* f : files) std::fclose(f);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    golden_events_ = stats->aggregate.events_delivered;
    ASSERT_GT(golden_events_, 0u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::string GoldenLane(size_t s) const {
    return Path("golden.shard" + std::to_string(s));
  }
  std::string FleetLane(size_t s) const {
    return Path("fleet.shard" + std::to_string(s));
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(file.good()) << "cannot read " << path;
    return std::string((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  }

  CoordinatorOptions FleetOptions() const {
    CoordinatorOptions options;
    options.stream = Path("stream.gts");
    options.total_shards = kTotalShards;
    options.workers = 2;
    options.rate_eps = 1e6;
    options.checkpoint_prefix = Path("fleet.cp");
    options.checkpoint_every = 200;
    options.out_prefix = Path("fleet");
    options.heartbeat_timeout_ms = 1500;
    return options;
  }

  ReplayWorkerOptions WorkerOptions(uint16_t port,
                                    const std::string& id) const {
    ReplayWorkerOptions options;
    options.coordinator_port = port;
    options.worker_id = id;
    options.heartbeat_interval_ms = 100;
    return options;
  }

  void ExpectFleetMatchesGolden() {
    for (size_t s = 0; s < kTotalShards; ++s) {
      EXPECT_EQ(ReadAll(FleetLane(s)), ReadAll(GoldenLane(s)))
          << "shard " << s << " diverged from the single-process golden";
    }
  }

  std::filesystem::path dir_;
  uint64_t golden_events_ = 0;
};

TEST_F(FleetTest, TwoWorkerFleetMatchesSingleProcessGolden) {
  Coordinator coordinator(FleetOptions());
  auto port = coordinator.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  Result<FleetReport> report = Status::Internal("never ran");
  std::thread coord_thread([&] { report = coordinator.Run(); });
  ReplayWorker w0(WorkerOptions(*port, "w0"));
  ReplayWorker w1(WorkerOptions(*port, "w1"));
  std::thread t0([&] { EXPECT_TRUE(w0.Run().ok()); });
  std::thread t1([&] { EXPECT_TRUE(w1.Run().ok()); });
  t0.join();
  t1.join();
  coord_thread.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->exactly_once());
  EXPECT_EQ(report->events, golden_events_);
  EXPECT_EQ(report->local_events, golden_events_);
  EXPECT_EQ(report->workers_seen, 2u);
  EXPECT_EQ(report->worker_deaths, 0u);
  EXPECT_GT(report->epochs_released, 0u);
  ExpectFleetMatchesGolden();
}

TEST_F(FleetTest, VanishedWorkerRangeIsReassignedToSurvivor) {
  CoordinatorOptions options = FleetOptions();
  options.heartbeat_timeout_ms = 500;  // detect the ghost quickly
  Coordinator coordinator(options);
  auto port = coordinator.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  Result<FleetReport> report = Status::Internal("never ran");
  std::thread coord_thread([&] { report = coordinator.Run(); });

  // The survivor runs normally while a "worker" says HELLO, takes its
  // assignment, and dies on the spot: the coordinator must declare the
  // ghost dead and move its range to the survivor, which replays it from
  // scratch (the ghost never wrote a checkpoint).
  ReplayWorker survivor(WorkerOptions(*port, "w0"));
  std::thread t0([&] { EXPECT_TRUE(survivor.Run().ok()); });
  {
    auto ghost = ControlChannel::Dial("127.0.0.1", *port, 2000);
    ASSERT_TRUE(ghost.ok()) << ghost.status().ToString();
    Frame hello(FrameType::kHello);
    hello.Set("worker", "ghost");
    EXPECT_TRUE((*ghost)->Send(hello).ok());
    // Assignment fires once both HELLOs are in; drain frames until the
    // ghost's ASSIGN arrives (it never acts on it).
    bool assigned = false;
    while (!assigned) {
      auto frame = (*ghost)->Receive(5000);
      if (!frame.ok()) break;
      assigned = frame->type == FrameType::kAssign;
    }
    EXPECT_TRUE(assigned) << "ghost never received its assignment";
    (*ghost)->Shutdown();
  }  // connection drops here — the ghost never replays a byte

  t0.join();
  coord_thread.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->exactly_once());
  EXPECT_EQ(report->events, golden_events_);
  EXPECT_GE(report->worker_deaths, 1u);
  EXPECT_GE(report->reassignments, 1u);
  ExpectFleetMatchesGolden();

  const ReplayWorker::Totals totals = survivor.totals();
  EXPECT_EQ(totals.local_events, golden_events_);
  EXPECT_GE(totals.tasks_started, 2u);
}

TEST_F(FleetTest, SilentWorkerIsDeclaredDeadAndItsRangeReassigned) {
  CoordinatorOptions options = FleetOptions();
  options.heartbeat_timeout_ms = 500;
  Coordinator coordinator(options);
  auto port = coordinator.Start();
  ASSERT_TRUE(port.ok()) << port.status().ToString();

  Result<FleetReport> report = Status::Internal("never ran");
  std::thread coord_thread([&] { report = coordinator.Run(); });

  // Unlike the vanished ghost above, this one keeps its connection open
  // and simply falls silent after taking its assignment: no EOF ever
  // reaches the coordinator, so only the heartbeat timeout can declare it
  // dead and hand its range to the survivor.
  ReplayWorker survivor(WorkerOptions(*port, "w0"));
  std::thread t0([&] { EXPECT_TRUE(survivor.Run().ok()); });
  auto ghost = ControlChannel::Dial("127.0.0.1", *port, 2000);
  ASSERT_TRUE(ghost.ok()) << ghost.status().ToString();
  Frame hello(FrameType::kHello);
  hello.Set("worker", "ghost");
  EXPECT_TRUE((*ghost)->Send(hello).ok());
  bool assigned = false;
  while (!assigned) {
    auto frame = (*ghost)->Receive(5000);
    if (!frame.ok()) break;
    assigned = frame->type == FrameType::kAssign;
  }
  EXPECT_TRUE(assigned) << "ghost never received its assignment";

  t0.join();
  coord_thread.join();
  (*ghost)->Shutdown();  // only now, after the fleet has completed

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->exactly_once());
  EXPECT_EQ(report->events, golden_events_);
  EXPECT_EQ(report->worker_deaths, 1u);
  EXPECT_GE(report->reassignments, 1u);
  ExpectFleetMatchesGolden();
}

}  // namespace
}  // namespace graphtides
