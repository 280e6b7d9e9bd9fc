// Minimal Status / Result error-propagation types.
//
// The library does not use exceptions. Fallible operations return a Status
// (or a Result<T> when they also produce a value). Both are cheap value
// types: an ok Status carries no allocation.

#ifndef LRUK_UTIL_STATUS_H_
#define LRUK_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/macros.h"

namespace lruk {

// Broad error taxonomy; sufficient for a storage/simulation library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kResourceExhausted,  // e.g. no evictable frame in the buffer pool
  kIoError,
  kOutOfRange,
  kInternal,
  kAborted,  // not attempted, because an operation it depends on failed
};

// Returns a short stable name for `code` ("OK", "NOT_FOUND", ...).
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kAborted:
      return "ABORTED";
  }
  return "UNKNOWN";
}

// Value-type error carrier. The default-constructed Status is OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status IoError(std::string m) {
    return Status(StatusCode::kIoError, std::move(m));
  }
  static Status OutOfRange(std::string m) {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Aborted(std::string m) {
    return Status(StatusCode::kAborted, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "CODE: message" for logs and test failures.
  std::string ToString() const {
    if (ok()) return "OK";
    std::string out = StatusCodeName(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error union. `value()` asserts on error; callers should test
// `ok()` (or propagate `status()`) first.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    LRUK_ASSERT(!status_.ok(), "Result constructed from an OK status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() {
    LRUK_ASSERT(ok(), status_.ToString().c_str());
    return *value_;
  }
  const T& value() const {
    LRUK_ASSERT(ok(), status_.ToString().c_str());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  // Moves the value out; only valid when ok().
  T ValueOrDie() && {
    LRUK_ASSERT(ok(), status_.ToString().c_str());
    return std::move(*value_);
  }

 private:
  std::optional<T> value_;
  Status status_;
};

// Propagates a non-OK status to the caller.
#define LRUK_RETURN_IF_ERROR(expr)          \
  do {                                      \
    ::lruk::Status _st = (expr);            \
    if (!_st.ok()) return _st;              \
  } while (0)

}  // namespace lruk

#endif  // LRUK_UTIL_STATUS_H_
