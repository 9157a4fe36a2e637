#include "aqed/report.h"

#include <cstdio>

namespace aqed::core {

std::string SummarizeResult(const AqedResult& result) {
  char buf[256];
  if (result.bug_found) {
    std::snprintf(buf, sizeof(buf),
                  "BUG (%s): %u-cycle counterexample, %.3f s, %llu conflicts",
                  BugKindName(result.kind), result.cex_cycles(),
                  result.bmc.seconds,
                  static_cast<unsigned long long>(result.bmc.conflicts));
  } else if (result.bmc.outcome == bmc::BmcResult::Outcome::kBoundReached) {
    std::snprintf(buf, sizeof(buf),
                  "PASS up to bound %u (%.3f s, %llu conflicts)",
                  result.bmc.frames_explored, result.bmc.seconds,
                  static_cast<unsigned long long>(result.bmc.conflicts));
  } else if (result.bmc.found_bug()) {
    // The session demoted a counterexample that failed simulator replay.
    return "CHECKER ERROR (counterexample failed simulator replay)";
  } else {
    std::snprintf(buf, sizeof(buf), "UNKNOWN (budget exhausted at frame %u)",
                  result.bmc.frames_explored);
  }
  return buf;
}

std::string FormatResult(const ir::TransitionSystem& ts,
                         const AqedResult& result) {
  std::string out = SummarizeResult(result);
  out += '\n';
  if (result.bug_found) {
    out += bmc::FormatTrace(ts, result.bmc.trace);
    out += result.bmc.trace_validated
               ? "(counterexample validated by simulator replay)\n"
               : "(counterexample NOT validated)\n";
  }
  return out;
}

}  // namespace aqed::core
