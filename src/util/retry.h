// Which I/O failures are transient.
//
// The buffer pool re-issues a failed disk operation up to
// BufferPoolOptions::io_max_attempts times in total, at once: nothing
// sleeps between attempts, so a pool thread that retries while holding its
// latch holds it only for the re-issued I/O itself. Only kIoError is
// considered transient (that's what a FaultInjectingDiskManager or a flaky
// device surfaces); kNotFound and friends are semantic errors that
// retrying cannot fix.
//
// Retries are off by default (io_max_attempts = 1).

#ifndef LRUK_UTIL_RETRY_H_
#define LRUK_UTIL_RETRY_H_

#include "util/status.h"

namespace lruk {

// True for errors worth re-issuing the operation on.
inline bool IsRetryableError(StatusCode code) {
  return code == StatusCode::kIoError;
}

}  // namespace lruk

#endif  // LRUK_UTIL_RETRY_H_
