// Cooperative cancellation for verification jobs.
//
// A CancellationSource owns a shared flag; CancellationTokens observe it.
// Tokens are cheap to copy, safe to poll from any thread, and are threaded
// through the long-running loops of the stack (the BMC depth loop and the
// SAT solver's search loop) so that a session can stop sibling jobs the
// moment one of them finds a bug ("first-bug-wins"), and so that the session
// monitor (sched/monitor.h) can stop a job whose wall-clock deadline or
// memory budget ran out.
//
// Cancellation is strictly cooperative and monotonic: once a source is
// cancelled it stays cancelled, and a job observes it at its next poll
// point. Each source records *why* it fired (CancelReason) — the first
// Cancel() wins — so an observer can distinguish a deadline expiry from
// first-bug-wins when deciding whether the job is worth retrying. The flag
// is a relaxed atomic — polling costs a few uncontended loads, cheap enough
// to sit inside the solver's per-decision loop.
//
// This header is deliberately free of scheduler machinery: the SAT and BMC
// layers include it without pulling in threads or sessions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/verdict.h"

namespace aqed::sched {

// Why a cancellation source fired (support/verdict.h — the enum lives with
// the other outcome enums so the wire-stable string mapping is defined
// once). Stored inside the shared flag itself (0 = not cancelled), so
// reading the reason is the same relaxed load as polling.
using aqed::CancelReason;

// The UnknownReason a cancellation maps to when it stops a solve/job.
inline UnknownReason UnknownReasonFromCancel(CancelReason reason) {
  switch (reason) {
    case CancelReason::kDeadline:
      return UnknownReason::kDeadline;
    case CancelReason::kMemoryBudget:
      return UnknownReason::kMemoryBudget;
    default:
      return UnknownReason::kCancelled;
  }
}

// Observer half. A default-constructed token is never cancelled (the common
// case for standalone RunBmc / Solver use outside a session). A token may
// observe up to kMaxFlags flags (see CancellationToken::Any) so a job can
// honor its entry-local source, a session-wide source and its session
// monitor registration (deadline or memory budget) at once.
class CancellationToken {
 public:
  CancellationToken() = default;

  bool cancelled() const {
    for (const Flag& flag : flags_) {
      if (flag && flag->load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  // Why the token is cancelled: the reason of the first fired flag, kNone
  // when the token is not cancelled.
  CancelReason reason() const {
    for (const Flag& flag : flags_) {
      if (!flag) continue;
      const uint8_t raw = flag->load(std::memory_order_relaxed);
      if (raw != 0) return static_cast<CancelReason>(raw);
    }
    return CancelReason::kNone;
  }

  // True when the token actually observes some source.
  bool armed() const { return flags_[0] != nullptr; }

  // Two tokens are equal when they observe the same flags in the same
  // order — i.e. they were built from the same sources the same way. This
  // is identity of observation, not of current state; it is what the BMC
  // layer's conflicting-token debug check compares.
  bool operator==(const CancellationToken& other) const = default;

  // A token cancelled when either input token is. The combined token keeps
  // up to kMaxFlags distinct flags (the deepest stack is the cube layer:
  // session + entry + the job's monitor registration + first-SAT-wins cube
  // winner); further flags of the second operand are dropped.
  static CancellationToken Any(const CancellationToken& x,
                               const CancellationToken& y) {
    CancellationToken token;
    size_t n = 0;
    for (const Flag& flag : x.flags_) {
      if (flag && n < kMaxFlags) token.flags_[n++] = flag;
    }
    for (const Flag& flag : y.flags_) {
      if (flag && n < kMaxFlags) token.flags_[n++] = flag;
    }
    return token;
  }

 private:
  friend class CancellationSource;
  using Flag = std::shared_ptr<const std::atomic<uint8_t>>;
  static constexpr size_t kMaxFlags = 4;

  explicit CancellationToken(Flag flag) { flags_[0] = std::move(flag); }

  std::array<Flag, kMaxFlags> flags_{};
};

// Owner half: hands out tokens and flips them all with Cancel().
class CancellationSource {
 public:
  CancellationSource()
      : flag_(std::make_shared<std::atomic<uint8_t>>(0)) {}

  // Cancels every token of this source. The first caller's reason sticks
  // (monotonic: later calls never overwrite it).
  void Cancel(CancelReason reason = CancelReason::kExternal) {
    uint8_t expected = 0;
    flag_->compare_exchange_strong(expected, static_cast<uint8_t>(reason),
                                   std::memory_order_relaxed,
                                   std::memory_order_relaxed);
  }

  bool cancelled() const {
    return flag_->load(std::memory_order_relaxed) != 0;
  }
  CancelReason reason() const {
    return static_cast<CancelReason>(flag_->load(std::memory_order_relaxed));
  }

  CancellationToken token() const { return CancellationToken(flag_); }

 private:
  std::shared_ptr<std::atomic<uint8_t>> flag_;
};

}  // namespace aqed::sched
