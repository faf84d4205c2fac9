// Corruption fuzzing for the durable checkpoint format and the rotated
// generation store: any byte-level damage to a version-2 record — torn
// tails, bit flips, garbage — must surface as ParseError, never as a
// silently wrong resume position, and LoadLatestGood must fall back past
// damaged generations instead of aborting the resume.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "replayer/checkpoint.h"

namespace graphtides {
namespace {

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_checkpoint_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static void WriteRaw(const std::string& path, const std::string& bytes) {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
};

ReplayCheckpoint SampleCheckpoint(uint64_t entries) {
  ReplayCheckpoint cp;
  cp.entries_consumed = entries;
  cp.events_delivered = entries > 2 ? entries - 2 : 0;
  cp.markers = entries > 2 ? 1 : 0;
  cp.controls = entries > 2 ? 1 : 0;
  cp.rate_factor = 1.5;
  cp.rng_state = {11, 22, 33, 44};
  cp.sink_bytes = {1000, 2000};
  return cp;
}

TEST_F(CheckpointFuzzTest, TruncationAtEveryByteOffsetIsRejected) {
  const std::string text = SampleCheckpoint(500).ToText();
  ASSERT_GT(text.size(), 100u);
  for (size_t len = 0; len < text.size(); ++len) {
    auto parsed = ReplayCheckpoint::FromText(text.substr(0, len));
    ASSERT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_TRUE(parsed.status().IsParseError()) << "prefix of " << len;
  }
  // Sanity: the untruncated record still round-trips.
  ASSERT_TRUE(ReplayCheckpoint::FromText(text).ok());
}

TEST_F(CheckpointFuzzTest, EverySingleBitFlipIsRejected) {
  const std::string text = SampleCheckpoint(500).ToText();
  for (size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      auto parsed = ReplayCheckpoint::FromText(flipped);
      EXPECT_FALSE(parsed.ok())
          << "flip of bit " << bit << " at offset " << i << " parsed";
    }
  }
}

TEST_F(CheckpointFuzzTest, GarbageInputsAreParseErrors) {
  const std::vector<std::string> garbage = {
      "",
      "\n",
      "\0\0\0\0",
      "not a checkpoint at all",
      "# graphtides replay checkpoint\n",          // header only
      "# graphtides replay checkpoint\nversion=2\n",  // v2 without crc
      std::string(4096, 'A'),
      std::string("\xff\xfe\x00\x01", 4),
  };
  for (size_t i = 0; i < garbage.size(); ++i) {
    auto parsed = ReplayCheckpoint::FromText(garbage[i]);
    ASSERT_FALSE(parsed.ok()) << "garbage case " << i << " parsed";
    EXPECT_TRUE(parsed.status().IsParseError()) << "garbage case " << i;
  }
}

TEST_F(CheckpointFuzzTest, ContentAfterCrcFooterIsRejected) {
  std::string text = SampleCheckpoint(100).ToText();
  auto parsed = ReplayCheckpoint::FromText(text + "trailing=1\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError());
}

TEST_F(CheckpointFuzzTest, VersionOneWithoutCrcIsRejected) {
  // Records from before the crc footer existed carry no integrity check;
  // nothing writes them any more, so they no longer load.
  std::string v1 =
      "# graphtides replay checkpoint\n"
      "version=1\n"
      "entries_consumed=10\n"
      "events_delivered=8\n"
      "markers=1\n"
      "controls=1\n";
  auto parsed = ReplayCheckpoint::FromText(v1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsParseError()) << parsed.status().ToString();
}

TEST_F(CheckpointFuzzTest, SinkBytesRoundTripThroughText) {
  ReplayCheckpoint cp = SampleCheckpoint(300);
  cp.sink_bytes = {0, 123456789, 42};
  auto parsed = ReplayCheckpoint::FromText(cp.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sink_bytes, cp.sink_bytes);
}

// ---------------------------------------------------------------------------
// Generation store: rotation, fallback, and total-loss behavior.
// ---------------------------------------------------------------------------

TEST_F(CheckpointFuzzTest, StoreRotationKeepsConfiguredGenerations) {
  const std::string path = Path("cp");
  const CheckpointStore store({path, 3});
  for (uint64_t n = 1; n <= 5; ++n) {
    ASSERT_TRUE(store.Save(SampleCheckpoint(n * 100)).ok());
  }
  // Newest three survive: 500, 400, 300; older generations were shifted
  // off the end.
  auto g0 =
      ReplayCheckpoint::LoadFrom(CheckpointStore::GenerationPath(path, 0));
  auto g1 =
      ReplayCheckpoint::LoadFrom(CheckpointStore::GenerationPath(path, 1));
  auto g2 =
      ReplayCheckpoint::LoadFrom(CheckpointStore::GenerationPath(path, 2));
  ASSERT_TRUE(g0.ok());
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g0->entries_consumed, 500u);
  EXPECT_EQ(g1->entries_consumed, 400u);
  EXPECT_EQ(g2->entries_consumed, 300u);
  EXPECT_FALSE(
      std::filesystem::exists(CheckpointStore::GenerationPath(path, 3)));
}

TEST_F(CheckpointFuzzTest, LoadFallsBackPastTornNewestGeneration) {
  const std::string path = Path("cp");
  const CheckpointStore store({path, 3});
  ASSERT_TRUE(store.Save(SampleCheckpoint(100)).ok());
  ASSERT_TRUE(store.Save(SampleCheckpoint(200)).ok());

  // Tear the newest record the way a mid-publish power loss would.
  const std::string newest = SampleCheckpoint(300).ToText();
  WriteRaw(path, newest.substr(0, newest.size() / 2));

  auto loaded = CheckpointStore::LoadLatestGood(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint.entries_consumed, 100u);
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->fallbacks, 1u);
  ASSERT_EQ(loaded->rejected.size(), 1u);
}

TEST_F(CheckpointFuzzTest, LoadFallsBackPastMultipleBadGenerations) {
  const std::string path = Path("cp");
  ASSERT_TRUE(
      SampleCheckpoint(100).SaveTo(CheckpointStore::GenerationPath(path, 2))
          .ok());
  WriteRaw(CheckpointStore::GenerationPath(path, 1), "garbage generation");
  const std::string newest = SampleCheckpoint(300).ToText();
  WriteRaw(path, newest.substr(0, 40));

  auto loaded = CheckpointStore::LoadLatestGood(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint.entries_consumed, 100u);
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->fallbacks, 2u);
  EXPECT_EQ(loaded->rejected.size(), 2u);
}

TEST_F(CheckpointFuzzTest, LoadSkipsMissingMiddleGeneration) {
  const std::string path = Path("cp");
  // Only generation 2 exists (0 and 1 were never published or were
  // cleaned up): the scan must reach it without counting phantom rejects.
  ASSERT_TRUE(
      SampleCheckpoint(700).SaveTo(CheckpointStore::GenerationPath(path, 2))
          .ok());
  auto loaded = CheckpointStore::LoadLatestGood(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint.entries_consumed, 700u);
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_TRUE(loaded->rejected.empty());
}

TEST_F(CheckpointFuzzTest, NoGenerationAtAllIsNotFound) {
  auto loaded = CheckpointStore::LoadLatestGood(Path("never_written"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST_F(CheckpointFuzzTest, AllGenerationsCorruptIsAnError) {
  const std::string path = Path("cp");
  WriteRaw(path, "torn");
  WriteRaw(CheckpointStore::GenerationPath(path, 1), "also torn");
  auto loaded = CheckpointStore::LoadLatestGood(path, 2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError());
}

TEST_F(CheckpointFuzzTest, TornFileOnDiskNeverLoads) {
  // Same property as the in-memory truncation sweep, but through the file
  // loader: every proper prefix written to disk is rejected.
  const std::string text = SampleCheckpoint(250).ToText();
  const std::string path = Path("torn");
  for (size_t len = 0; len < text.size(); len += 7) {
    WriteRaw(path, text.substr(0, len));
    auto loaded = ReplayCheckpoint::LoadFrom(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
}

}  // namespace
}  // namespace graphtides
