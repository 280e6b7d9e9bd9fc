// Unit tests for util/retry.h: attempt counting, immediate re-issue, the
// pool's retries-off default and the retryable-error taxonomy.

#include "util/retry.h"

#include <chrono>

#include "bufferpool/buffer_pool.h"
#include "gtest/gtest.h"

namespace lruk {
namespace {

TEST(RetryTest, DefaultOptionsRunOnce) {
  BufferPoolOptions options;  // io_max_attempts = 1: retries off.
  EXPECT_EQ(options.io_max_attempts, 1);
  int calls = 0;
  RetryOutcome outcome = RetryTransient(options.io_max_attempts, [&] {
    ++calls;
    return Status::IoError("boom");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kIoError);
}

TEST(RetryTest, SingleAttemptRunsOnce) {
  int calls = 0;
  RetryOutcome outcome = RetryTransient(1, [&] {
    ++calls;
    return Status::IoError("boom");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kIoError);
}

TEST(RetryTest, SucceedsFirstTry) {
  int calls = 0;
  RetryOutcome outcome = RetryTransient(5, [&] {
    ++calls;
    return Status::Ok();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_TRUE(outcome.status.ok());
}

TEST(RetryTest, AbsorbsTransientFailure) {
  int calls = 0;
  RetryOutcome outcome = RetryTransient(3, [&] {
    ++calls;
    return calls < 3 ? Status::IoError("transient") : Status::Ok();
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.retries, 2u);
  EXPECT_TRUE(outcome.status.ok());
}

TEST(RetryTest, ExhaustsAttemptsOnPermanentFailure) {
  int calls = 0;
  RetryOutcome outcome = RetryTransient(4, [&] {
    ++calls;
    return Status::IoError("permanent");
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(outcome.retries, 3u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kIoError);
}

TEST(RetryTest, NonRetryableErrorReturnsImmediately) {
  int calls = 0;
  RetryOutcome outcome = RetryTransient(5, [&] {
    ++calls;
    return Status::NotFound("semantic error");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.retries, 0u);
  EXPECT_EQ(outcome.status.code(), StatusCode::kNotFound);
}

TEST(RetryTest, NullSleepRetriesWithoutWaiting) {
  // There is no backoff: every retry re-issues at once, as a null sleep
  // did. 10,000 failing attempts take well under a second; a sleep of even
  // 100 us between attempts would take a full second.
  constexpr int kAttempts = 10000;
  int calls = 0;
  auto start = std::chrono::steady_clock::now();
  RetryOutcome outcome = RetryTransient(kAttempts, [&] {
    ++calls;
    return Status::IoError("always");
  });
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(calls, kAttempts);
  EXPECT_EQ(outcome.retries, static_cast<uint64_t>(kAttempts - 1));
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(RetryTest, ZeroAndNegativeAttemptsClampToOne) {
  for (int attempts : {0, -3}) {
    int calls = 0;
    (void)RetryTransient(attempts, [&] {
      ++calls;
      return Status::IoError("boom");
    });
    EXPECT_EQ(calls, 1);
  }
}

TEST(RetryTest, IsRetryableErrorTaxonomy) {
  EXPECT_TRUE(IsRetryableError(StatusCode::kIoError));
  EXPECT_FALSE(IsRetryableError(StatusCode::kOk));
  EXPECT_FALSE(IsRetryableError(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableError(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryableError(StatusCode::kResourceExhausted));
}

}  // namespace
}  // namespace lruk
