#include "util/status.h"

#include <string>

#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  Status s = Status::NotFound("page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "page 7");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: page 7");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "ALREADY_EXISTS");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAborted), "ABORTED");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IoError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r(Status::IoError("disk on fire"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.status().message(), "disk on fire");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(r->size(), 3u);
}

Status FailsThenPropagates(bool fail) {
  auto inner = [&]() -> Status {
    if (fail) return Status::OutOfRange("boom");
    return Status::Ok();
  };
  LRUK_RETURN_IF_ERROR(inner());
  return Status::AlreadyExists("reached the end");
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_EQ(FailsThenPropagates(true).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailsThenPropagates(false).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace lruk
