#include "bench_lib.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.h"

namespace graphtides::e2e {
namespace {

// Linear interpolation between order statistics: quartile i of n sorted
// values sits at position i * (n - 1) / 4.
TEST(QuartilesTest, InterpolatesBetweenOrderStatistics) {
  const Quartiles ten = Quartiles::Of({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(ten.q1, 3.25);
  EXPECT_DOUBLE_EQ(ten.median, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 7.75);
  EXPECT_DOUBLE_EQ(ten.RelativeSpread(), 4.5 / 5.5);

  const Quartiles five = Quartiles::Of({40, 10, 30, 20, 50});
  EXPECT_DOUBLE_EQ(five.q1, 20.0);
  EXPECT_DOUBLE_EQ(five.median, 30.0);
  EXPECT_DOUBLE_EQ(five.q3, 40.0);
}

TEST(QuartilesTest, DegenerateSamples) {
  const Quartiles one = Quartiles::Of({4.5});
  EXPECT_EQ(one.q1, 4.5);
  EXPECT_EQ(one.median, 4.5);
  EXPECT_EQ(one.q3, 4.5);
  EXPECT_EQ(one.RelativeSpread(), 0.0);
  EXPECT_EQ(Quartiles::Of({}).median, 0.0);
}

TEST(Ci95Test, UsesStudentTTable) {
  // mean 3, sample sd sqrt(2.5), n = 5: half-width t(0.95, 4) * sd / sqrt(5).
  const ConfidenceInterval ci = Ci95({1, 2, 3, 4, 5});
  const double half = 2.776 * std::sqrt(2.5) / std::sqrt(5.0);
  EXPECT_DOUBLE_EQ(StudentTCritical(0.95, 4), 2.776);
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_NEAR(ci.lower, 3.0 - half, 1e-12);
  EXPECT_NEAR(ci.upper, 3.0 + half, 1e-12);
  EXPECT_EQ(ci.n, 5u);
}

RunRecord SampleRecord() {
  RunRecord r;
  r.workload = "saturate-v2";
  r.seed = 11;
  r.seconds = 10;
  r.traced = false;
  r.host = {4, "Release", "gcc 12.2.0", true};
  r.correct = false;
  r.attempted = 123456;
  r.failed = 2;
  r.failures = {"lane 0 delivered: 5, expected 6", "quote \" and\nnewline"};
  r.metrics["throughput"] = {11234567.25, "1/s"};
  r.metrics["setup_s"] = {0.8127034, "s"};
  return r;
}

TEST(RunRecordTest, JsonRoundTrip) {
  const RunRecord r = SampleRecord();
  Result<RunRecord> back = RunRecord::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, r);
}

TEST(RunRecordTest, ResultLineHasExactlyItsFourKeys) {
  Result<JsonValue> line = ParseJson(SampleRecord().ResultLine());
  ASSERT_TRUE(line.ok());
  std::vector<std::string> keys;
  for (const auto& [key, value] : line->object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"attempted", "correct", "failed",
                                            "metrics"}));
  const JsonValue& metric = line->object.at("metrics").object.at("setup_s");
  EXPECT_DOUBLE_EQ(metric.object.at("value").number, 0.8127034);
  EXPECT_EQ(metric.object.at("unit").str, "s");
}

TEST(RunRecordTest, RejectsOtherSchemasAndBadCounts) {
  EXPECT_FALSE(RunRecord::FromJson("{\"schema\": \"other\"}").ok());
  std::string json = SampleRecord().ToJson();
  const size_t at = json.find("\"attempted\": 123456");
  ASSERT_NE(at, std::string::npos);
  json.replace(at, 19, "\"attempted\": -1");
  EXPECT_FALSE(RunRecord::FromJson(json).ok());
}

std::vector<RunRecord> RunSet(std::vector<double> throughputs) {
  std::vector<RunRecord> set;
  for (const double t : throughputs) {
    RunRecord r = SampleRecord();
    r.metrics["throughput"].value = t;
    set.push_back(r);
  }
  return set;
}

TEST(CompareRunSetsTest, RefusesDifferentFingerprints) {
  std::vector<RunRecord> base = RunSet({100, 101, 102});
  std::vector<RunRecord> candidate = RunSet({100, 101, 102});
  candidate[1].host.compiler = "clang 17";
  Result<std::vector<MetricComparison>> cmp =
      CompareRunSets(base, candidate, {{"throughput", false, 0.1}});
  ASSERT_FALSE(cmp.ok());
  EXPECT_NE(cmp.status().ToString().find("fingerprint"), std::string::npos);

  candidate = RunSet({100, 101, 102});
  candidate[0].host.cores = 8;
  EXPECT_FALSE(CompareRunSets(base, candidate, {}).ok());
}

TEST(CompareRunSetsTest, FlagsOnlySeparatedChangesBeyondTheBound) {
  const std::vector<RunRecord> base = RunSet({100, 101, 99, 100, 100});
  const std::vector<MetricSpec> specs = {{"throughput", false, 0.1},
                                         {"setup_s", true, 0.25}};
  // 20% lower throughput with tight spreads: a regression.
  Result<std::vector<MetricComparison>> worse =
      CompareRunSets(base, RunSet({80, 81, 79, 80, 80}), specs);
  ASSERT_TRUE(worse.ok());
  ASSERT_EQ(worse->size(), 2u);
  EXPECT_EQ((*worse)[0].metric, "throughput");
  EXPECT_NEAR((*worse)[0].worse_by, 0.2, 1e-12);
  EXPECT_TRUE((*worse)[0].regression);
  EXPECT_FALSE((*worse)[1].regression);  // setup_s unchanged
  // 5% lower is inside the bound even though the CIs separate.
  Result<std::vector<MetricComparison>> within =
      CompareRunSets(base, RunSet({95, 96, 94, 95, 95}), specs);
  ASSERT_TRUE(within.ok());
  EXPECT_FALSE((*within)[0].regression);
  // Higher throughput is a gain, never a regression.
  Result<std::vector<MetricComparison>> better =
      CompareRunSets(base, RunSet({150, 151, 149, 150, 150}), specs);
  ASSERT_TRUE(better.ok());
  EXPECT_LT((*better)[0].worse_by, 0.0);
  EXPECT_FALSE((*better)[0].regression);
}

}  // namespace
}  // namespace graphtides::e2e
