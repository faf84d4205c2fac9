#include "common/flags.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(FlagsTest, EmptyCommandLine) {
  auto flags = Flags::Parse({});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->Has("anything"));
  EXPECT_TRUE(flags->positional().empty());
}

TEST(FlagsTest, SpaceSeparatedValues) {
  auto flags = Flags::Parse({"--model", "social", "--rounds", "100"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("model", ""), "social");
  EXPECT_EQ(flags->GetInt("rounds", 0).value(), 100);
}

TEST(FlagsTest, EqualsSeparatedValues) {
  auto flags = Flags::Parse({"--rate=2500.5", "--out=file.gts"});
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("rate", 0.0).value(), 2500.5);
  EXPECT_EQ(flags->GetString("out", ""), "file.gts");
}

TEST(FlagsTest, BareFlagIsBoolean) {
  auto flags = Flags::Parse({"--stats", "--quiet", "--rounds", "5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("stats"));
  EXPECT_TRUE(flags->GetBool("quiet"));
  EXPECT_FALSE(flags->GetBool("missing"));
  EXPECT_EQ(flags->GetInt("rounds", 0).value(), 5);
}

TEST(FlagsTest, BooleanFalseValues) {
  auto flags = Flags::Parse({"--a=false", "--b=0", "--c=no", "--d=yes"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetBool("a", true));
  EXPECT_FALSE(flags->GetBool("b", true));
  EXPECT_FALSE(flags->GetBool("c", true));
  EXPECT_TRUE(flags->GetBool("d", false));
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  auto flags = Flags::Parse({});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("x", "def"), "def");
  EXPECT_EQ(flags->GetInt("x", 42).value(), 42);
  EXPECT_DOUBLE_EQ(flags->GetDouble("x", 1.5).value(), 1.5);
}

TEST(FlagsTest, MalformedNumbersError) {
  auto flags = Flags::Parse({"--rounds", "abc", "--rate", "x.y"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetInt("rounds", 0).ok());
  EXPECT_FALSE(flags->GetDouble("rate", 0.0).ok());
  // Error message names the flag.
  EXPECT_NE(flags->GetInt("rounds", 0).status().message().find("--rounds"),
            std::string::npos);
}

TEST(FlagsTest, PositionalArguments) {
  auto flags = Flags::Parse({"input.gts", "--rate", "100", "extra"});
  ASSERT_TRUE(flags.ok());
  ASSERT_EQ(flags->positional().size(), 2u);
  EXPECT_EQ(flags->positional()[0], "input.gts");
  EXPECT_EQ(flags->positional()[1], "extra");
}

TEST(FlagsTest, UnknownFlagDetection) {
  auto flags = Flags::Parse({"--model", "social", "--typo", "x"});
  ASSERT_TRUE(flags.ok());
  const auto unknown = flags->UnknownFlags({"model", "rounds"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagsTest, BareDoubleDashRejected) {
  auto flags = Flags::Parse({"--"});
  EXPECT_FALSE(flags.ok());
}

TEST(FlagsTest, ArgcArgvEntryPoint) {
  const char* argv[] = {"prog", "--n", "3"};
  auto flags = Flags::Parse(3, argv);
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 0).value(), 3);
}

TEST(FlagsTest, LastOccurrenceWins) {
  auto flags = Flags::Parse({"--n", "1", "--n", "2"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 0).value(), 2);
}

TEST(FlagsTest, NegativeNumbersAsValues) {
  // "-5" does not start with "--", so it is consumed as the value.
  auto flags = Flags::Parse({"--offset", "-5"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("offset", 0).value(), -5);
}

TEST(ParseHostPortTest, SplitsHostAndPort) {
  auto endpoint = ParseHostPort("127.0.0.1:9009", "tcp");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  EXPECT_EQ(endpoint->host, "127.0.0.1");
  EXPECT_EQ(endpoint->port, 9009);
  endpoint = ParseHostPort("localhost:65535", "tcp");
  ASSERT_TRUE(endpoint.ok());
  EXPECT_EQ(endpoint->port, 65535);
}

TEST(ParseHostPortTest, RejectsMalformedSpecsNamingTheFlag) {
  for (const char* spec : {"localhost", "a:1:2", "", ":9009"}) {
    auto endpoint = ParseHostPort(spec, "tcp");
    ASSERT_FALSE(endpoint.ok()) << spec;
    EXPECT_EQ(endpoint.status().ToString(),
              "InvalidArgument: --tcp expects HOST:PORT");
  }
  for (const char* spec : {"h:", "h:x", "h:-1", "h:65536", "h:0"}) {
    auto endpoint = ParseHostPort(spec, "coordinator");
    ASSERT_FALSE(endpoint.ok()) << spec;
    EXPECT_EQ(endpoint.status().ToString(),
              "InvalidArgument: bad port in --coordinator");
  }
}

TEST(ParseHostPortTest, PortZeroOnlyWhereAllowed) {
  EXPECT_FALSE(ParseHostPort("127.0.0.1:0", "tcp").ok());
  auto listen = ParseHostPort("127.0.0.1:0", "listen",
                              /*allow_port_zero=*/true);
  ASSERT_TRUE(listen.ok());
  EXPECT_EQ(listen->host, "127.0.0.1");
  EXPECT_EQ(listen->port, 0);
}

}  // namespace
}  // namespace graphtides
