// Memory-pressure levels published by the session monitor (sched/monitor.h).
//
// BMC blow-up is a *resource* failure long before it is a wrong answer: a
// deep unrolling of a wide accelerator can take the process RSS past what
// the host will tolerate, and the OOM killer's verdict is neither sound nor
// attributable. A session with SessionOptions::memory_budget_mb turns that
// cliff into staged, observable degradation: its monitor polls the process
// RSS against the budget and publishes one of four levels through a
// process-wide atomic:
//
//   kNone     — under 75% of the budget; nothing changes.
//   kShed     — (>= 75%) SAT solvers aggressively shed their learnt-clause
//               databases and compact their arenas at the next reduce-DB
//               checkpoint (Solver::ShedLearnts), rather than when garbage
//               passes 20% of the arena as ordinary reduction does.
//   kThrottle — (>= 90%) the BMC engine stops escalating stalled depths
//               into cube-and-conquer fan-outs, which clone the solver once
//               per worker (bmc.cube_throttled counts the skips).
//   kCancel   — (>= 100%) the monitor cancels the heaviest registered job
//               — largest published solver footprint — with
//               CancelReason::kMemoryBudget, one per poll tick, until
//               pressure falls. The job reports kUnknown with
//               UnknownReason::kMemoryBudget and is never retried (a retry
//               would just hit the same wall).
//
// The first two stages are advisory and read by solvers/engines through
// CurrentMemoryPressure() — one relaxed load, cheap enough for the solver's
// restart loop. Only the last stage is mandatory. Pressure is process-wide
// (RSS is a process-wide number); run one budgeted session at a time.
//
// Like sched/cancellation.h, this header is free of threads: the SAT and
// BMC layers include it without pulling in the monitor.
#pragma once

#include <atomic>
#include <cstdint>

namespace aqed::sched {

enum class MemoryPressure : uint8_t {
  kNone = 0,
  kShed = 1,      // solvers shed learnt clauses and compact arenas
  kThrottle = 2,  // BMC stops escalating into cube fan-outs
  kCancel = 3,    // the monitor is cancelling the heaviest job
};

inline const char* MemoryPressureName(MemoryPressure pressure) {
  switch (pressure) {
    case MemoryPressure::kNone: return "none";
    case MemoryPressure::kShed: return "shed";
    case MemoryPressure::kThrottle: return "throttle";
    case MemoryPressure::kCancel: return "cancel";
  }
  return "?";
}

namespace internal {
// The published pressure level. Writable by tests (forcing a level
// exercises the solver's shed path without allocating gigabytes); written
// by at most one budgeted monitor at a time otherwise.
extern std::atomic<uint8_t> g_pressure;
}  // namespace internal

// The pressure level the running monitor last published (kNone when no
// budgeted monitor is running). One relaxed load.
inline MemoryPressure CurrentMemoryPressure() {
  return static_cast<MemoryPressure>(
      internal::g_pressure.load(std::memory_order_relaxed));
}

// Publishes the calling thread's current solver heap estimate
// (Solver::MemoryBytes, refreshed at restart boundaries) into the job
// registered on this thread via SessionMonitor::Register. A no-op on
// threads without a registered job (standalone solves, cube workers).
void PublishSolverMemory(uint64_t bytes);

}  // namespace aqed::sched
