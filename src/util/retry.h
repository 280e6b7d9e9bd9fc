// Bounded retry of transient I/O failures.
//
// RetryTransient re-issues a fallible operation up to `max_attempts` times
// in total, at once: nothing sleeps between attempts, so a pool thread that
// retries while holding its latch holds it only for the re-issued I/O
// itself. Only kIoError is considered transient (that's what a
// FaultInjectingDiskManager or a flaky device surfaces); kNotFound and
// friends are semantic errors that retrying cannot fix.
//
// Retries are off by default (BufferPoolOptions::io_max_attempts = 1).

#ifndef LRUK_UTIL_RETRY_H_
#define LRUK_UTIL_RETRY_H_

#include <cstdint>

#include "util/status.h"

namespace lruk {

// True for errors worth re-issuing the operation on.
inline bool IsRetryableError(StatusCode code) {
  return code == StatusCode::kIoError;
}

struct RetryOutcome {
  Status status;         // Final status after all attempts.
  uint64_t retries = 0;  // Re-issues performed (attempts - 1).
};

// Runs `op` (a callable returning Status) up to `max_attempts` times (a
// value below 1 counts as 1). Returns the first OK or non-retryable
// status, or the last error once attempts are exhausted, plus how many
// retries were spent.
template <typename Fn>
RetryOutcome RetryTransient(int max_attempts, Fn&& op) {
  RetryOutcome outcome;
  for (int attempt = 1;; ++attempt) {
    outcome.status = op();
    if (outcome.status.ok() || !IsRetryableError(outcome.status.code()) ||
        attempt >= max_attempts) {
      return outcome;
    }
    ++outcome.retries;
  }
}

}  // namespace lruk

#endif  // LRUK_UTIL_RETRY_H_
