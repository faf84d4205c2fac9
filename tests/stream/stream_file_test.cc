#include "stream/stream_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace graphtides {
namespace {

class StreamFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("gt_stream_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

std::vector<Event> SampleStream() {
  return {
      Event::AddVertex(1, "a"),   Event::AddVertex(2, "b"),
      Event::AddEdge(1, 2, "e"),  Event::Marker("BOOTSTRAP_DONE"),
      Event::Pause(Duration::FromSeconds(1.0)),
      Event::UpdateVertex(1, "a2"), Event::SetRate(2.0),
      Event::RemoveEdge(1, 2),    Event::RemoveVertex(2),
      Event::Marker("STREAM_END"),
  };
}

TEST_F(StreamFileTest, WriteReadRoundTrip) {
  const auto events = SampleStream();
  ASSERT_TRUE(WriteStreamFile(Path("s.gts"), events).ok());
  auto read = ReadStreamFile(Path("s.gts"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, events);
}

TEST_F(StreamFileTest, ReaderSkipsCommentsAndBlanks) {
  std::ofstream out(Path("c.gts"));
  out << "# header comment\n\nCREATE_VERTEX,1,\n   \n# mid\nCREATE_VERTEX,2,\n";
  out.close();
  auto read = ReadStreamFile(Path("c.gts"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
}

TEST_F(StreamFileTest, ReaderReportsLineNumberOnError) {
  std::ofstream out(Path("bad.gts"));
  out << "CREATE_VERTEX,1,\nBOGUS,2,\n";
  out.close();
  auto read = ReadStreamFile(Path("bad.gts"));
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().message().find("line 2"), std::string::npos);
}

TEST_F(StreamFileTest, MissingFileIsIoError) {
  auto read = ReadStreamFile(Path("does_not_exist.gts"));
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsIoError());
}

TEST_F(StreamFileTest, IncrementalReaderYieldsInOrder) {
  const auto events = SampleStream();
  ASSERT_TRUE(WriteStreamFile(Path("inc.gts"), events).ok());
  StreamFileReader reader;
  ASSERT_TRUE(reader.Open(Path("inc.gts")).ok());
  size_t i = 0;
  while (true) {
    auto next = reader.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    ASSERT_LT(i, events.size());
    EXPECT_EQ(**next, events[i]);
    ++i;
  }
  EXPECT_EQ(i, events.size());
}

TEST_F(StreamFileTest, OverLongLineIsRejectedWithLineNumber) {
  std::ofstream out(Path("long.gts"));
  out << "CREATE_VERTEX,1,\n";
  out << "CREATE_VERTEX,2," << std::string(4096, 'x') << "\n";
  out << "CREATE_VERTEX,3,\n";
  out.close();
  StreamFileReaderOptions options;
  options.max_line_bytes = 256;
  StreamFileReader reader(options);
  ASSERT_TRUE(reader.Open(Path("long.gts")).ok());
  auto first = reader.Next();
  ASSERT_TRUE(first.ok());
  auto second = reader.Next();
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsParseError());
  EXPECT_NE(second.status().message().find("line 2"), std::string::npos);
  // The over-long line was drained: the reader resumes on line 3.
  auto third = reader.Next();
  ASSERT_TRUE(third.ok());
  ASSERT_TRUE(third->has_value());
  EXPECT_EQ((*third)->vertex, 3u);
}

TEST_F(StreamFileTest, NulByteIsRejected) {
  std::ofstream out(Path("nul.gts"), std::ios::binary);
  const char data[] = "CREATE_VERTEX,1,\nCREATE_VERTEX,\0 2,\n";
  out.write(data, sizeof(data) - 1);
  out.close();
  StreamFileReader reader;
  ASSERT_TRUE(reader.Open(Path("nul.gts")).ok());
  ASSERT_TRUE(reader.Next().ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsParseError());
  EXPECT_NE(bad.status().message().find("NUL"), std::string::npos);
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST_F(StreamFileTest, TruncatedFinalRecordIsFlagged) {
  std::ofstream out(Path("trunc.gts"));
  out << "CREATE_VERTEX,1,\nCREATE_VER";  // cut off mid-record, no newline
  out.close();
  StreamFileReader reader;
  ASSERT_TRUE(reader.Open(Path("trunc.gts")).ok());
  ASSERT_TRUE(reader.Next().ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsParseError());
  EXPECT_NE(bad.status().message().find("truncated final record"),
            std::string::npos);
}

TEST_F(StreamFileTest, TerminatedFinalRecordIsNotFlaggedAsTruncated) {
  std::ofstream out(Path("badline.gts"));
  out << "BOGUS,1,\n";
  out.close();
  StreamFileReader reader;
  ASSERT_TRUE(reader.Open(Path("badline.gts")).ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message().find("truncated"), std::string::npos);
}

TEST_F(StreamFileTest, FinalLineWithoutNewlineStillParses) {
  std::ofstream out(Path("nonl.gts"));
  out << "CREATE_VERTEX,1,\nCREATE_VERTEX,2,";  // complete record, no '\n'
  out.close();
  auto read = ReadStreamFile(Path("nonl.gts"));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 2u);
}

TEST_F(StreamFileTest, NonNumericIdReportsLineNumber) {
  std::ofstream out(Path("nonnum.gts"));
  out << "CREATE_VERTEX,1,\nCREATE_VERTEX,abc,\n";
  out.close();
  StreamFileReader reader;
  ASSERT_TRUE(reader.Open(Path("nonnum.gts")).ok());
  ASSERT_TRUE(reader.Next().ok());
  auto bad = reader.Next();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsParseError());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(ParseStreamTextTest, ParsesMultilineText) {
  auto events = ParseStreamText(
      "CREATE_VERTEX,1,\n# comment\nCREATE_VERTEX,2,\nCREATE_EDGE,1-2,\n");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 3u);
}

TEST(ParseStreamTextTest, ErrorsCarryLineNumbers) {
  auto events = ParseStreamText("CREATE_VERTEX,1,\nJUNK\n");
  ASSERT_FALSE(events.ok());
  EXPECT_NE(events.status().message().find("line 2"), std::string::npos);
}

TEST(FormatStreamTextTest, RoundTrip) {
  const auto events = SampleStream();
  auto parsed = ParseStreamText(FormatStreamText(events));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, events);
}

TEST(FormatStreamTextTest, EmptyStream) {
  EXPECT_EQ(FormatStreamText({}), "");
  auto parsed = ParseStreamText("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

}  // namespace
}  // namespace graphtides
