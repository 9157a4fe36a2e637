// Wire-stable verdict vocabulary shared by every layer.
//
// Three small enums describe how verification work ends: a Verdict (what a
// job concluded), an UnknownReason (why an inconclusive job stopped), and a
// CancelReason (why a cancellation source fired). Each gets exactly ONE
// string mapping, defined here, with a FromString inverse. Records do not
// store Verdict: journals and solve caches write fault::AddVerdictColumns'
// `classification` and `kind` columns, and the journal adds an
// `unknown_reason` column in the names below. Those names, and the ones
// stats tables and telemetry print, are stable: old journals parse them
// back, so renaming one is a format break, not a refactor.
//
// ToString is total (AQED-internal enums never hold stray values for long;
// the "?" fallback keeps logs printable if one ever does). FromString is the
// exact inverse over the enumerated values and rejects everything else —
// round-tripped exhaustively in tests/support_test.cpp. EnumFromName below
// is the one reverse lookup; the journal uses it for the fault enums too.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace aqed {

// How a verification job (one property group on one design) concluded. The
// scheduler's JobResult carries the same information spread over flags
// (bug_found / checker_error / unknown_reason); Verdict is its closed-form
// summary, which only tests use so far.
enum class Verdict : uint8_t {
  kBug = 0,      // a validated counterexample was found
  kClean,        // every property refuted up to its bound
  kUnknown,      // inconclusive (see UnknownReason)
  kCheckerError, // counterexample failed simulator replay: toolchain bug
};

enum class UnknownReason : uint8_t {
  kNone = 0,         // the verdict is not unknown
  kConflictBudget,   // the per-depth SAT conflict budget ran out
  kDeadline,         // the job's wall-clock deadline expired (watchdog)
  kCancelled,        // stopped cooperatively (first-bug-wins / external)
  kMemoryBudget,     // the session's memory governor cancelled the job
};

// Why a cancellation source fired (sched/cancellation.h stores this inside
// the shared flag itself; 0 = not cancelled). Defined here, next to the
// other outcome enums, so the string mapping lives in one header.
enum class CancelReason : uint8_t {
  kNone = 0,         // not cancelled
  kExternal = 1,     // VerificationSession::Cancel() / user abort
  kFirstBugWins = 2, // a sibling job found a bug
  kDeadline = 3,     // the job's wall-clock watchdog expired
  kCubeSolved = 4,   // a sibling cube of the same query found a model
  kMemoryBudget = 5, // the session's memory governor shed the job
};

// Every value of each enum, for exhaustive round-trip tests and reverse
// lookups. Keep in sync with the enums above (the round-trip test counts).
inline constexpr Verdict kAllVerdicts[] = {
    Verdict::kBug, Verdict::kClean, Verdict::kUnknown, Verdict::kCheckerError};
inline constexpr UnknownReason kAllUnknownReasons[] = {
    UnknownReason::kNone, UnknownReason::kConflictBudget,
    UnknownReason::kDeadline, UnknownReason::kCancelled,
    UnknownReason::kMemoryBudget};
inline constexpr CancelReason kAllCancelReasons[] = {
    CancelReason::kNone,       CancelReason::kExternal,
    CancelReason::kFirstBugWins, CancelReason::kDeadline,
    CancelReason::kCubeSolved, CancelReason::kMemoryBudget};

inline const char* ToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBug:
      return "bug";
    case Verdict::kClean:
      return "clean";
    case Verdict::kUnknown:
      return "unknown";
    case Verdict::kCheckerError:
      return "checker-error";
  }
  return "?";
}

inline const char* ToString(UnknownReason reason) {
  switch (reason) {
    case UnknownReason::kNone:
      return "none";
    case UnknownReason::kConflictBudget:
      return "conflict-budget";
    case UnknownReason::kDeadline:
      return "deadline";
    case UnknownReason::kCancelled:
      return "cancelled";
    case UnknownReason::kMemoryBudget:
      return "memory-budget";
  }
  return "?";
}

inline const char* ToString(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kExternal:
      return "external";
    case CancelReason::kFirstBugWins:
      return "first-bug-wins";
    case CancelReason::kDeadline:
      return "deadline";
    case CancelReason::kCubeSolved:
      return "cube-solved";
    case CancelReason::kMemoryBudget:
      return "memory-budget";
  }
  return "?";
}

// Reverse lookup over an enum's one name function, for enums whose values
// run from 0 to `last`: records store the names (greppable, stable across
// enum reorders), never the raw integers.
template <typename E, typename Namer>
std::optional<E> EnumFromName(std::string_view name, E last, Namer namer) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (name == namer(static_cast<E>(i))) return static_cast<E>(i);
  }
  return std::nullopt;
}

inline std::optional<Verdict> VerdictFromString(std::string_view name) {
  return EnumFromName(name, Verdict::kCheckerError,
                      [](Verdict value) { return ToString(value); });
}
inline std::optional<UnknownReason> UnknownReasonFromString(
    std::string_view name) {
  return EnumFromName(name, UnknownReason::kMemoryBudget,
                      [](UnknownReason value) { return ToString(value); });
}
inline std::optional<CancelReason> CancelReasonFromString(
    std::string_view name) {
  return EnumFromName(name, CancelReason::kMemoryBudget,
                      [](CancelReason value) { return ToString(value); });
}

}  // namespace aqed
