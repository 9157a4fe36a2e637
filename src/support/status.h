// Lightweight status/error reporting used across the library.
//
// The library is exception-free on hot paths; construction-time errors in
// user-facing builders (e.g. malformed transition systems) are reported via
// Status / StatusOr so that callers can surface them without aborting.
#pragma once

#include <optional>
#include <string>
#include <utility>

namespace aqed {

// Outcome of an operation that can fail with a human-readable message.
class Status {
 public:
  Status() = default;  // OK
  static Status Ok() { return Status(); }
  static Status Error(std::string message);

  bool ok() const { return !message_.has_value(); }
  const std::string& message() const;

 private:
  std::optional<std::string> message_;
};

// Value-or-error. `value()` must only be called when `ok()`.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}              // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}      // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const T& value() const& { return *value_; }
  T&& value() && { return std::move(*value_); }

 private:
  Status status_;
  std::optional<T> value_;
};

// Prints the failed check and aborts. Called only by AQED_CHECK.
[[noreturn]] void CheckFail(const char* expr, const char* file, int line,
                            const std::string& message);

// Aborts with `msg` if `cond` is false. Used for internal invariants
// (programming errors), not user-input validation. `msg` is evaluated only
// when the check fails, so a passing check on a hot path builds no string.
#define AQED_CHECK(cond, msg)                                              \
  do {                                                                     \
    if (__builtin_expect(!(cond), 0))                                      \
      ::aqed::CheckFail(#cond, __FILE__, __LINE__, (msg));                 \
  } while (0)

}  // namespace aqed
