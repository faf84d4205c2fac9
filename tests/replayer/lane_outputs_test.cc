#include "replayer/lane_outputs.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "replayer/checkpoint.h"
#include "stream/event.h"

namespace graphtides {
namespace {

class LaneOutputsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_lane_outputs_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }
  void WriteFile(const std::string& path, const std::string& bytes) const {
    std::ofstream(path, std::ios::binary) << bytes;
  }
  std::string ReadFile(const std::string& path) const {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::filesystem::path dir_;
};

TEST(LaneOutputPathTest, OneLaneWritesThePrefixItself) {
  EXPECT_EQ(LaneOutputPath("out", 0, 1), "out");
  EXPECT_EQ(LaneOutputPath("out", 2, 4), "out.shard2");
  EXPECT_EQ(ShardOutputPath("out", 0), "out.shard0");
}

TEST_F(LaneOutputsTest, FreshRunEmptiesEachFile) {
  const std::vector<std::string> paths = {Path("a"), Path("b")};
  WriteFile(paths[0], "stale bytes\n");
  {
    auto outputs = OpenLaneOutputs(paths, nullptr);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    ASSERT_EQ(outputs->sinks().size(), 2u);
    ASSERT_TRUE(outputs->sink(1)->Deliver(Event::AddVertex(7)).ok());
  }
  EXPECT_EQ(ReadFile(paths[0]), "");
  EXPECT_EQ(ReadFile(paths[1]), Event::AddVertex(7).ToCsvLine() + "\n");
}

TEST_F(LaneOutputsTest, ResumeTruncatesToTheOffsetAndAppends) {
  const std::vector<std::string> paths = {Path("a"), Path("b")};
  WriteFile(paths[0], "kept\nhalf-flushed");
  WriteFile(paths[1], "all kept\n");
  ReplayCheckpoint checkpoint;
  checkpoint.sink_bytes = {5, 9};
  {
    auto outputs = OpenLaneOutputs(paths, &checkpoint);
    ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
    ASSERT_TRUE(outputs->sink(0)->Deliver(Event::AddVertex(1)).ok());
    ASSERT_TRUE(outputs->sink(1)->Deliver(Event::AddVertex(2)).ok());
    outputs->Close();
    EXPECT_TRUE(outputs->sinks().empty());
  }
  EXPECT_EQ(ReadFile(paths[0]), "kept\n" + Event::AddVertex(1).ToCsvLine() +
                                    "\n");
  EXPECT_EQ(ReadFile(paths[1]),
            "all kept\n" + Event::AddVertex(2).ToCsvLine() + "\n");
}

TEST_F(LaneOutputsTest, RejectsAnOffsetCountThatDiffersFromTheLanes) {
  const std::vector<std::string> paths = {Path("a"), Path("b")};
  WriteFile(paths[0], "x\n");
  WriteFile(paths[1], "y\n");
  ReplayCheckpoint checkpoint;
  checkpoint.sink_bytes = {2};
  auto outputs = OpenLaneOutputs(paths, &checkpoint);
  ASSERT_FALSE(outputs.ok());
  EXPECT_TRUE(outputs.status().IsInvalidArgument());
  EXPECT_NE(outputs.status().message().find(
                "records 1 sink byte offsets for 2 output files"),
            std::string::npos)
      << outputs.status().ToString();
  // Nothing was truncated.
  EXPECT_EQ(ReadFile(paths[0]), "x\n");
}

TEST_F(LaneOutputsTest, RejectsAFileShorterThanItsOffset) {
  const std::vector<std::string> paths = {Path("a")};
  WriteFile(paths[0], "abc");
  ReplayCheckpoint checkpoint;
  checkpoint.sink_bytes = {10};
  auto outputs = OpenLaneOutputs(paths, &checkpoint);
  ASSERT_FALSE(outputs.ok());
  EXPECT_TRUE(outputs.status().IsIoError());
  EXPECT_NE(outputs.status().message().find(
                "is shorter than its checkpointed offset (3 < 10 bytes)"),
            std::string::npos)
      << outputs.status().ToString();
  EXPECT_EQ(ReadFile(paths[0]), "abc");
}

TEST_F(LaneOutputsTest, RejectsAMissingFileOnResume) {
  const std::vector<std::string> paths = {Path("missing")};
  ReplayCheckpoint checkpoint;
  checkpoint.sink_bytes = {0};
  auto outputs = OpenLaneOutputs(paths, &checkpoint);
  ASSERT_FALSE(outputs.ok());
  EXPECT_TRUE(outputs.status().IsIoError());
  EXPECT_NE(outputs.status().message().find("cannot stat"), std::string::npos)
      << outputs.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(paths[0]));
}

}  // namespace
}  // namespace graphtides
