#include "stream/event.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(EventTypeTest, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(EventType::kPause); ++i) {
    const EventType type = static_cast<EventType>(i);
    auto parsed = EventTypeFromName(EventTypeName(type));
    ASSERT_TRUE(parsed.has_value()) << EventTypeName(type);
    EXPECT_EQ(*parsed, type);
  }
}

TEST(EventTypeTest, UnknownNameIsParseError) {
  EXPECT_FALSE(EventTypeFromName("FROB_VERTEX").has_value());
  EXPECT_FALSE(EventTypeFromName("").has_value());
  EXPECT_FALSE(EventTypeFromName("create_vertex").has_value());  // case-sensitive
  const Status status = ParseEventLine("FROB_VERTEX,1,").status();
  EXPECT_TRUE(status.IsParseError());
  EXPECT_EQ(status.message(), "unknown command: 'FROB_VERTEX'");
}

TEST(EventTypeTest, Classification) {
  EXPECT_TRUE(IsGraphOp(EventType::kAddVertex));
  EXPECT_TRUE(IsGraphOp(EventType::kUpdateEdge));
  EXPECT_FALSE(IsGraphOp(EventType::kMarker));
  EXPECT_FALSE(IsGraphOp(EventType::kSetRate));

  EXPECT_TRUE(IsTopologyChange(EventType::kAddVertex));
  EXPECT_TRUE(IsTopologyChange(EventType::kRemoveEdge));
  EXPECT_FALSE(IsTopologyChange(EventType::kUpdateVertex));

  EXPECT_TRUE(IsStateUpdate(EventType::kUpdateVertex));
  EXPECT_TRUE(IsStateUpdate(EventType::kUpdateEdge));
  EXPECT_FALSE(IsStateUpdate(EventType::kAddEdge));

  EXPECT_TRUE(IsVertexOp(EventType::kRemoveVertex));
  EXPECT_FALSE(IsVertexOp(EventType::kAddEdge));
  EXPECT_TRUE(IsEdgeOp(EventType::kUpdateEdge));
  EXPECT_FALSE(IsEdgeOp(EventType::kMarker));

  EXPECT_TRUE(IsControl(EventType::kSetRate));
  EXPECT_TRUE(IsControl(EventType::kPause));
  EXPECT_FALSE(IsControl(EventType::kMarker));

  EXPECT_TRUE(IsAddOp(EventType::kAddEdge));
  EXPECT_FALSE(IsAddOp(EventType::kUpdateVertex));
  EXPECT_TRUE(IsRemoveOp(EventType::kRemoveVertex));
  EXPECT_FALSE(IsRemoveOp(EventType::kAddVertex));
}

TEST(EventTest, FactoryFieldsSet) {
  const Event av = Event::AddVertex(7, "state");
  EXPECT_EQ(av.type, EventType::kAddVertex);
  EXPECT_EQ(av.vertex, 7u);
  EXPECT_EQ(av.payload, "state");

  const Event ae = Event::AddEdge(1, 2, "s");
  EXPECT_EQ(ae.edge, (EdgeId{1, 2}));

  const Event m = Event::Marker("PHASE");
  EXPECT_EQ(m.payload, "PHASE");

  const Event sr = Event::SetRate(2.5);
  EXPECT_DOUBLE_EQ(sr.rate_factor, 2.5);

  const Event p = Event::Pause(Duration::FromSeconds(20.0));
  EXPECT_EQ(p.pause.millis(), 20000);
}

TEST(EventTest, CsvLineFormats) {
  EXPECT_EQ(Event::AddVertex(4, "").ToCsvLine(), "CREATE_VERTEX,4,");
  EXPECT_EQ(Event::RemoveVertex(9).ToCsvLine(), "REMOVE_VERTEX,9,");
  EXPECT_EQ(Event::AddEdge(3, 4, "x").ToCsvLine(), "CREATE_EDGE,3-4,x");
  EXPECT_EQ(Event::RemoveEdge(3, 4).ToCsvLine(), "REMOVE_EDGE,3-4,");
  EXPECT_EQ(Event::Marker("M1").ToCsvLine(), "MARKER,,M1");
  EXPECT_EQ(Event::SetRate(2).ToCsvLine(), "SET_RATE,,2");
  EXPECT_EQ(Event::Pause(Duration::FromMillis(500)).ToCsvLine(),
            "PAUSE,,500");
}

TEST(EventTest, PayloadWithCommaIsQuoted) {
  const Event e = Event::UpdateVertex(1, R"({"a":1,"b":2})");
  const std::string line = e.ToCsvLine();
  auto parsed = ParseEventLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->payload, R"({"a":1,"b":2})");
}

class EventRoundTripTest : public ::testing::TestWithParam<Event> {};

TEST_P(EventRoundTripTest, SerializeParseIdentity) {
  const Event& original = GetParam();
  auto parsed = ParseEventLine(original.ToCsvLine());
  ASSERT_TRUE(parsed.ok()) << original.ToCsvLine();
  EXPECT_EQ(*parsed, original);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, EventRoundTripTest,
    ::testing::Values(
        Event::AddVertex(0, ""), Event::AddVertex(12345, "{\"k\":\"v\"}"),
        Event::RemoveVertex(99), Event::UpdateVertex(1, "new,state"),
        Event::AddEdge(1, 2, ""), Event::AddEdge(1000000, 2000000, "w=5"),
        Event::RemoveEdge(7, 8), Event::UpdateEdge(5, 6, "{\"bytes\":10}"),
        Event::Marker("BOOTSTRAP_DONE"), Event::Marker("with, comma"),
        Event::SetRate(0.5), Event::SetRate(4.0),
        Event::Pause(Duration::FromMillis(1)),
        Event::Pause(Duration::FromSeconds(20.0))));

TEST(ParseEventLineTest, SkipsBlankAndComments) {
  EXPECT_TRUE(ParseEventLine("").status().IsNotFound());
  EXPECT_TRUE(ParseEventLine("   ").status().IsNotFound());
  EXPECT_TRUE(ParseEventLine("# comment").status().IsNotFound());
  EXPECT_TRUE(ParseEventLine("  # indented comment").status().IsNotFound());
}

TEST(ParseEventLineTest, WrongFieldCount) {
  EXPECT_TRUE(ParseEventLine("CREATE_VERTEX,1").status().IsParseError());
  EXPECT_TRUE(
      ParseEventLine("CREATE_VERTEX,1,s,extra").status().IsParseError());
}

TEST(ParseEventLineTest, BadVertexId) {
  EXPECT_TRUE(ParseEventLine("CREATE_VERTEX,abc,").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("CREATE_VERTEX,-1,").status().IsParseError());
}

TEST(ParseEventLineTest, BadEdgeId) {
  EXPECT_TRUE(ParseEventLine("CREATE_EDGE,12,").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("CREATE_EDGE,a-b,").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("CREATE_EDGE,1-,").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("CREATE_EDGE,-2,").status().IsParseError());
}

TEST(ParseEventLineTest, BadControlValues) {
  EXPECT_TRUE(ParseEventLine("SET_RATE,,0").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("SET_RATE,,-1").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("SET_RATE,,abc").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("PAUSE,,-5").status().IsParseError());
  EXPECT_TRUE(ParseEventLine("PAUSE,,x").status().IsParseError());
}

TEST(ParseEventLineTest, WhitespaceAroundLineTolerated) {
  auto parsed = ParseEventLine("  CREATE_VERTEX,5,hello  ");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->vertex, 5u);
}

TEST(EventEqualityTest, IgnoresIrrelevantFields) {
  // REMOVE_VERTEX equality ignores the payload.
  Event a = Event::RemoveVertex(3);
  Event b = Event::RemoveVertex(3);
  b.payload = "junk";
  EXPECT_EQ(a, b);
  // Different vertex differs.
  EXPECT_FALSE(a == Event::RemoveVertex(4));
  // Different type differs.
  EXPECT_FALSE(Event::AddVertex(3) == Event::RemoveVertex(3));
}

TEST(EdgeIdTest, OrderingAndEquality) {
  EXPECT_EQ((EdgeId{1, 2}), (EdgeId{1, 2}));
  EXPECT_NE((EdgeId{1, 2}), (EdgeId{2, 1}));
  EXPECT_LT((EdgeId{1, 2}), (EdgeId{1, 3}));
  EXPECT_LT((EdgeId{1, 9}), (EdgeId{2, 0}));
}

}  // namespace
}  // namespace graphtides
