#include "support/status.h"

#include <cstdio>
#include <cstdlib>

namespace aqed {

Status Status::Error(std::string message) {
  Status s;
  s.message_ = std::move(message);
  return s;
}

const std::string& Status::message() const {
  static const std::string kOk = "OK";
  return message_.has_value() ? *message_ : kOk;
}

void CheckFail(const char* expr, const char* file, int line,
               const std::string& message) {
  std::fprintf(stderr, "AQED_CHECK failed: %s at %s:%d: %s\n", expr, file,
               line, message.c_str());
  std::abort();
}

}  // namespace aqed
