// gt-stream-v2 conformance, part 1: lossless round trips. Every event
// type survives encode/decode; every generator model and seed survives
// v1 -> v2 -> v1 byte-identically; the mmap and buffered readers agree on
// every file; encoding is deterministic (same events, same bytes), which
// is what makes v2 -> v1 -> v2 byte-stable.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "generator/models/blockchain_model.h"
#include "generator/models/ddos_model.h"
#include "generator/models/event_mix_model.h"
#include "generator/models/social_network_model.h"
#include "generator/stream_generator.h"
#include "stream/stream_file.h"
#include "stream/v2_format.h"
#include "stream/v2_reader.h"
#include "stream/v2_writer.h"

namespace graphtides {
namespace {

class V2RoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_v2_roundtrip_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// One of every event type, with empty and non-empty payloads, boundary
// ids, a fractional rate factor, and a payload containing bytes the CSV
// format could never carry on these types (checked absent after decode).
std::vector<Event> AllTypesStream() {
  return {
      Event::AddVertex(0, ""),
      Event::AddVertex(UINT64_MAX, "state with spaces"),
      Event::UpdateVertex(7, "u"),
      Event::AddEdge(1, 2, "w=0.5"),
      Event::AddEdge(UINT64_MAX, 0),
      Event::UpdateEdge(1, 2, "w=0.75"),
      Event::Marker("BOOTSTRAP_DONE"),
      Event::Marker(""),
      Event::SetRate(2.5),
      Event::SetRate(0.125),
      Event::Pause(Duration::FromMillis(250)),
      Event::Pause(Duration::Zero()),
      Event::RemoveEdge(1, 2),
      Event::RemoveVertex(7),
      Event::Marker("STREAM_END"),
  };
}

TEST_F(V2RoundTripTest, AllEventTypesSurviveWriteRead) {
  const std::vector<Event> events = AllTypesStream();
  ASSERT_TRUE(WriteV2StreamFile(Path("s.gts2"), events).ok());
  auto read = ReadV2StreamFile(Path("s.gts2"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, events);
}

TEST_F(V2RoundTripTest, EmptyStreamIsPreambleAndSentinelOnly) {
  ASSERT_TRUE(WriteV2StreamFile(Path("empty.gts2"), {}).ok());
  const std::string bytes = Slurp(Path("empty.gts2"));
  EXPECT_EQ(bytes.size(), kV2PreambleBytes + kV2BlockHeaderBytes);
  auto read = ReadV2StreamFile(Path("empty.gts2"));
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->empty());
}

TEST_F(V2RoundTripTest, MmapAndBufferedReadersAgree) {
  // Enough events to span several sealed blocks.
  std::vector<Event> events;
  for (uint64_t v = 0; v < 3 * kV2RecordsPerBlock + 17; ++v) {
    events.push_back(
        Event::AddVertex(v, std::string("s").append(std::to_string(v % 97))));
  }
  ASSERT_TRUE(WriteV2StreamFile(Path("big.gts2"), events).ok());

  std::vector<Event> got_mmap;
  std::vector<Event> got_read;
  for (const bool use_mmap : {true, false}) {
    V2StreamReader reader(V2ReaderOptions{.use_mmap = use_mmap});
    ASSERT_TRUE(reader.Open(Path("big.gts2")).ok());
    auto& got = use_mmap ? got_mmap : got_read;
    for (;;) {
      auto next = reader.Next();
      ASSERT_TRUE(next.ok()) << next.status();
      if (!next->has_value()) break;
      got.push_back((*next)->Materialize());
    }
  }
  EXPECT_EQ(got_mmap, events);
  EXPECT_EQ(got_mmap, got_read);
}

TEST_F(V2RoundTripTest, EncodingIsDeterministic) {
  const std::vector<Event> events = AllTypesStream();
  ASSERT_TRUE(WriteV2StreamFile(Path("a.gts2"), events).ok());
  ASSERT_TRUE(WriteV2StreamFile(Path("b.gts2"), events).ok());
  EXPECT_EQ(Slurp(Path("a.gts2")), Slurp(Path("b.gts2")));

  // v2 -> v1 -> v2 byte-stability follows from determinism plus lossless
  // decode: re-encoding the decoded events reproduces the file.
  auto decoded = ReadV2StreamFile(Path("a.gts2"));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(WriteV2StreamFile(Path("c.gts2"), *decoded).ok());
  EXPECT_EQ(Slurp(Path("a.gts2")), Slurp(Path("c.gts2")));
}

TEST_F(V2RoundTripTest, RepeatedPayloadsInternToOneTrailerEntry) {
  // 1000 records sharing one payload: the trailer carries it once, so the
  // file stays near the fixed-record floor instead of 1000 copies.
  std::vector<Event> events;
  const std::string payload(64, 'x');
  for (uint64_t v = 0; v < 1000; ++v) {
    events.push_back(Event::AddVertex(v, payload));
  }
  ASSERT_TRUE(WriteV2StreamFile(Path("interned.gts2"), events).ok());
  const size_t floor_bytes = kV2PreambleBytes + 2 * kV2BlockHeaderBytes +
                             events.size() * kV2RecordBytes;
  const size_t size = std::filesystem::file_size(Path("interned.gts2"));
  EXPECT_LT(size, floor_bytes + 2 * payload.size());
  auto read = ReadV2StreamFile(Path("interned.gts2"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, events);
}

TEST_F(V2RoundTripTest, WriterAppendFieldsMatchesAppend) {
  const std::vector<Event> events = AllTypesStream();
  {
    V2FileWriter writer;
    ASSERT_TRUE(writer.Open(Path("by_event.gts2")).ok());
    for (const Event& e : events) ASSERT_TRUE(writer.Append(e).ok());
    ASSERT_TRUE(writer.Finish().ok());
  }
  {
    V2FileWriter writer;
    ASSERT_TRUE(writer.Open(Path("by_fields.gts2")).ok());
    for (const Event& e : events) {
      ASSERT_TRUE(writer
                      .AppendFields(e.type, e.vertex, e.edge, e.payload,
                                    e.rate_factor, e.pause)
                      .ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    EXPECT_EQ(writer.events_written(), events.size());
    EXPECT_EQ(writer.bytes_written(),
              std::filesystem::file_size(Path("by_fields.gts2")));
  }
  EXPECT_EQ(Slurp(Path("by_event.gts2")), Slurp(Path("by_fields.gts2")));
}

TEST_F(V2RoundTripTest, DetectStreamFormatByMagic) {
  ASSERT_TRUE(WriteV2StreamFile(Path("v2.gts2"), {Event::AddVertex(1)}).ok());
  ASSERT_TRUE(WriteStreamFile(Path("v1.gts"), {Event::AddVertex(1)}).ok());
  std::ofstream(Path("short.gts")) << "CR";  // shorter than the magic

  auto v2 = DetectStreamFormat(Path("v2.gts2"));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, StreamFormat::kV2);
  auto v1 = DetectStreamFormat(Path("v1.gts"));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, StreamFormat::kCsv);
  auto tiny = DetectStreamFormat(Path("short.gts"));
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(*tiny, StreamFormat::kCsv);
  auto missing = DetectStreamFormat(Path("nope"));
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIoError());
}

TEST_F(V2RoundTripTest, AnyFormatReaderDispatchesOnMagic) {
  const std::vector<Event> events = AllTypesStream();
  ASSERT_TRUE(WriteV2StreamFile(Path("v2.gts2"), events).ok());
  ASSERT_TRUE(WriteStreamFile(Path("v1.gts"), events).ok());
  auto from_v2 = ReadStreamFileAnyFormat(Path("v2.gts2"));
  auto from_v1 = ReadStreamFileAnyFormat(Path("v1.gts"));
  ASSERT_TRUE(from_v2.ok());
  ASSERT_TRUE(from_v1.ok());
  EXPECT_EQ(*from_v2, events);
  EXPECT_EQ(*from_v1, events);
}

// Both CRC implementations must match their published check vectors —
// CRC-32 (IEEE, checkpoints/GTDP) and CRC-32C (Castagnoli, v2 blocks,
// where a hardware path may be in use) — plus incremental-vs-one-shot
// agreement at every split point of a buffer crossing the 8-byte
// slicing/hardware word boundary.
TEST(V2Crc32Test, MatchesIeeeCheckVector) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(V2Crc32Test, MatchesCastagnoliCheckVector) {
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(V2Crc32Test, IncrementalSplitsAgreeWithOneShot) {
  std::string data;
  for (int i = 0; i < 257; ++i) data.push_back(static_cast<char>(i * 31));
  const uint32_t whole = Crc32(data);
  const uint32_t whole_c = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const std::string_view view(data);
    EXPECT_EQ(Crc32Update(Crc32(view.substr(0, split)), view.substr(split)),
              whole)
        << "split " << split;
    EXPECT_EQ(Crc32cUpdate(Crc32c(view.substr(0, split)), view.substr(split)),
              whole_c)
        << "split " << split;
  }
}

// Every generator model, two seeds each: the v2 file decodes back to the
// generated events, and re-serializing the decoded events as CSV
// reproduces the CSV file byte for byte (v1 -> v2 -> v1 identity —
// gt_convert's contract, proven at the library layer).
TEST_F(V2RoundTripTest, AllGeneratorModelsRoundTripByteIdentically) {
  struct ModelCase {
    const char* name;
    std::unique_ptr<GeneratorModel> model;
  };
  for (const uint64_t seed : {7u, 1234u}) {
    std::vector<ModelCase> cases;
    cases.push_back({"social", std::make_unique<SocialNetworkModel>()});
    DdosModelOptions ddos;
    ddos.attacks = {{200, 400}};
    cases.push_back({"ddos", std::make_unique<DdosModel>(ddos)});
    cases.push_back({"blockchain", std::make_unique<BlockchainModel>()});
    cases.push_back(
        {"mix", std::make_unique<EventMixModel>(EventMixModelOptions{})});
    for (auto& c : cases) {
      StreamGeneratorOptions options;
      options.rounds = 600;
      options.seed = seed;
      options.marker_interval = 100;
      StreamGenerator generator(c.model.get(), options);
      auto stream = generator.Generate();
      ASSERT_TRUE(stream.ok()) << c.name << ": " << stream.status();

      const std::string csv = Path(std::string(c.name) + ".gts");
      const std::string v2 = Path(std::string(c.name) + ".gts2");
      ASSERT_TRUE(WriteStreamFile(csv, stream->events).ok());
      ASSERT_TRUE(WriteV2StreamFile(v2, stream->events).ok());

      auto decoded = ReadV2StreamFile(v2);
      ASSERT_TRUE(decoded.ok()) << c.name << ": " << decoded.status();
      EXPECT_EQ(*decoded, stream->events) << c.name;

      const std::string csv_again = Path(std::string(c.name) + "_rt.gts");
      ASSERT_TRUE(WriteStreamFile(csv_again, *decoded).ok());
      EXPECT_EQ(Slurp(csv), Slurp(csv_again))
          << c.name << " seed " << seed << ": v1->v2->v1 not byte-identical";
    }
  }
}

}  // namespace
}  // namespace graphtides
