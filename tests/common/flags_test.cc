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

// A tool's typical table: every destination type, non-trivial defaults.
struct ToolOptions {
  std::string in;
  double rate = 1000.0;
  uint64_t stop_after = 0;
  uint32_t sample_every = 64;
  int windows = 3;
  int64_t offset = 0;
  bool quiet = false;
  Duration stall = Duration::FromMillis(2);
};

FlagTable ToolTable(ToolOptions* options) {
  FlagTable table("gt_tool");
  table.Add("in", &options->in);
  table.Add("rate", &options->rate);
  table.Add("stop-after", &options->stop_after);
  table.Add("telemetry-sample", &options->sample_every);
  table.Add("windows", &options->windows);
  table.Add("offset", &options->offset);
  table.Add("quiet", &options->quiet);
  table.AddMillis("stall-ms", &options->stall);
  return table;
}

TEST(FlagTableTest, BindsEachFlagIntoItsField) {
  ToolOptions options;
  FlagTable table = ToolTable(&options);
  ASSERT_TRUE(table
                  .Parse({"--in", "s.gts", "--rate", "2500.5", "--stop-after",
                          "9000", "--telemetry-sample", "1", "--windows",
                          "-2", "--offset", "-5", "--quiet", "--stall-ms",
                          "7"})
                  .ok());
  EXPECT_EQ(options.in, "s.gts");
  EXPECT_DOUBLE_EQ(options.rate, 2500.5);
  EXPECT_EQ(options.stop_after, 9000u);
  EXPECT_EQ(options.sample_every, 1u);
  EXPECT_EQ(options.windows, -2);  // range rules belong to the validators
  EXPECT_EQ(options.offset, -5);
  EXPECT_TRUE(options.quiet);
  EXPECT_EQ(options.stall, Duration::FromMillis(7));
  EXPECT_FALSE(table.help());
}

TEST(FlagTableTest, EqualsFormAndUnsetFlagsKeepTheirDefaults) {
  ToolOptions options;
  FlagTable table = ToolTable(&options);
  ASSERT_TRUE(table.Parse({"--rate=5", "--quiet=false", "--in="}).ok());
  EXPECT_DOUBLE_EQ(options.rate, 5.0);
  EXPECT_FALSE(options.quiet);
  EXPECT_EQ(options.in, "");
  EXPECT_EQ(options.stop_after, 0u);
  EXPECT_EQ(options.sample_every, 64u);
  EXPECT_EQ(options.stall, Duration::FromMillis(2));
}

TEST(FlagTableTest, GivenReportsWhatTheCommandLineSet) {
  ToolOptions options;
  FlagTable table = ToolTable(&options);
  ASSERT_TRUE(table.Parse({"--rate", "1000"}).ok());
  // Set to its default value is still set: "was it given" is not "did it
  // change".
  EXPECT_TRUE(table.Given("rate"));
  EXPECT_FALSE(table.Given("stop-after"));
  EXPECT_FALSE(table.Given("not-a-flag"));
}

Status ParseStatus(std::vector<std::string> args) {
  ToolOptions options;
  return ToolTable(&options).Parse(args);
}

TEST(FlagTableTest, RejectsUnknownFlagsByName) {
  EXPECT_EQ(ParseStatus({"--batch", "256"}).ToString(),
            "InvalidArgument: unknown flag --batch");
}

TEST(FlagTableTest, RejectsPositionalArguments) {
  EXPECT_EQ(ParseStatus({"--in", "s.gts", "extra"}).ToString(),
            "InvalidArgument: unexpected argument 'extra'");
  EXPECT_FALSE(ParseStatus({"s.gts"}).ok());
}

TEST(FlagTableTest, RejectsMalformedNumbersNamingTheFlag) {
  EXPECT_EQ(ParseStatus({"--windows", "abc"}).ToString(),
            "ParseError: flag --windows: not an integer: 'abc'");
  EXPECT_EQ(ParseStatus({"--rate", "x.y"}).ToString(),
            "ParseError: flag --rate: not a number: 'x.y'");
  EXPECT_FALSE(ParseStatus({"--stall-ms", "2.5"}).ok());
}

TEST(FlagTableTest, RejectsANegativeValueForAnUnsignedField) {
  EXPECT_EQ(ParseStatus({"--stop-after", "-1"}).ToString(),
            "InvalidArgument: flag --stop-after: -1 is outside [0, "
            "18446744073709551615]");
  EXPECT_EQ(ParseStatus({"--telemetry-sample", "-3"}).ToString(),
            "InvalidArgument: flag --telemetry-sample: -3 is outside [0, "
            "4294967295]");
}

TEST(FlagTableTest, RejectsAValueBeyondTheFieldsRange) {
  EXPECT_EQ(ParseStatus({"--windows", "3000000000"}).ToString(),
            "InvalidArgument: flag --windows: 3000000000 is outside "
            "[-2147483648, 2147483647]");
  EXPECT_EQ(ParseStatus({"--telemetry-sample", "4294967296"}).ToString(),
            "InvalidArgument: flag --telemetry-sample: 4294967296 is outside "
            "[0, 4294967295]");
  EXPECT_FALSE(ParseStatus({"--stop-after", "18446744073709551616"}).ok());
  EXPECT_FALSE(ParseStatus({"--stall-ms", "9223372036855"}).ok());
}

TEST(FlagTableTest, BoolFlagTakesOnlyBooleanValues) {
  for (const char* value : {"true", "1", "yes"}) {
    ToolOptions options;
    ASSERT_TRUE(ToolTable(&options).Parse({"--quiet", value}).ok()) << value;
    EXPECT_TRUE(options.quiet) << value;
  }
  for (const char* value : {"false", "0", "no"}) {
    ToolOptions options;
    options.quiet = true;
    ASSERT_TRUE(ToolTable(&options).Parse({"--quiet", value}).ok()) << value;
    EXPECT_FALSE(options.quiet) << value;
  }
  // `--quiet s.gts` must not swallow the file name as a truthy value.
  EXPECT_EQ(ParseStatus({"--quiet", "s.gts"}).ToString(),
            "ParseError: flag --quiet: not a boolean "
            "(true/false/1/0/yes/no): 's.gts'");
}

TEST(FlagTableTest, HelpListsEveryFlagWithMetavarAndDefault) {
  ToolOptions options;
  FlagTable table = ToolTable(&options);
  ASSERT_TRUE(table.Parse({"--help"}).ok());
  EXPECT_TRUE(table.help());
  const std::string usage = table.Usage();
  EXPECT_NE(usage.find("usage: gt_tool"), std::string::npos) << usage;
  for (const char* line :
       {"--in TEXT\n", "--rate X ", "(default 1000)\n", "--stop-after N ",
        "(default 0)\n", "--telemetry-sample N ", "(default 64)\n",
        "--quiet\n", "--stall-ms MS ", "(default 2)\n"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

TEST(FlagTableTest, HelpShowsTheDefaultsBeforeParsing) {
  ToolOptions options;
  FlagTable table = ToolTable(&options);
  ASSERT_TRUE(table.Parse({"--rate", "7", "--help"}).ok());
  EXPECT_NE(table.Usage().find("(default 1000)"), std::string::npos);
  EXPECT_DOUBLE_EQ(options.rate, 1000.0);  // --help stores nothing
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
