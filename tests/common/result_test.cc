#include "common/result.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace graphtides {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = []() -> Result<int> { return Status::OK(); }();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, ValueOrReturnsFallbackOnError) {
  Result<int> err(Status::IoError("x"));
  EXPECT_EQ(err.ValueOr(-1), -1);
  Result<int> ok(7);
  EXPECT_EQ(ok.ValueOr(-1), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status Consume(int x, int* out) {
  GT_ASSIGN_OR_RETURN(const int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(Consume(-1, &out).IsInvalidArgument());
  EXPECT_EQ(out, 0);
}

TEST(ResultTest, AssignOrReturnAssigns) {
  int out = 0;
  ASSERT_TRUE(Consume(21, &out).ok());
  EXPECT_EQ(out, 42);
}

Status DoubleAssign(int* out) {
  GT_ASSIGN_OR_RETURN(const int a, ParsePositive(3));
  GT_ASSIGN_OR_RETURN(const int b, ParsePositive(4));
  *out = a + b;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnTwiceInOneScope) {
  int out = 0;
  ASSERT_TRUE(DoubleAssign(&out).ok());
  EXPECT_EQ(out, 7);
}

TEST(ResultTest, VectorValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
}

}  // namespace
}  // namespace graphtides
