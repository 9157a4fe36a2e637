// Memory-budget governor for verification sessions.
//
// BMC blow-up is a *resource* failure long before it is a wrong answer: a
// deep unrolling of a wide accelerator can take the process RSS past what
// the host will tolerate, and the OOM killer's verdict is neither sound nor
// attributable. The governor turns that cliff into staged, observable
// degradation. A single background thread polls the process resource probes
// (telemetry/resource.h) against SessionOptions::memory_budget_mb and
// publishes one of four pressure levels through a process-wide atomic:
//
//   kNone     — under the shed threshold; nothing changes.
//   kShed     — (>= 75% of budget by default) SAT solvers aggressively shed
//               their learnt-clause databases and compact their arenas at
//               the next reduce-DB checkpoint (Solver::ShedLearnts), rather
//               than when garbage passes 20% of the arena as ordinary
//               reduction does.
//   kThrottle — (>= 90%) the BMC engine stops escalating stalled depths
//               into cube-and-conquer fan-outs, which clone the solver once
//               per worker (bmc.cube_throttled counts the skips).
//   kCancel   — (>= 100%) the governor cancels the heaviest registered
//               job — largest published solver footprint — with
//               CancelReason::kMemoryBudget, one per poll tick, until
//               pressure falls. The job reports kUnknown with
//               UnknownReason::kMemoryBudget and is never retried (a retry
//               would just hit the same wall).
//
// The first two stages are advisory and read by solvers/engines through
// CurrentMemoryPressure() — one relaxed load, cheap enough for the solver's
// restart loop. Only the last stage is mandatory. Pressure is process-wide
// (RSS is a process-wide number); run one governed session at a time.
//
// Like the deadline watchdog, the governor thread is started lazily and the
// per-job registration is RAII (JobScope), so a finished job can never be
// cancelled late.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/cancellation.h"

namespace aqed::sched {

enum class MemoryPressure : uint8_t {
  kNone = 0,
  kShed = 1,      // solvers shed learnt clauses and compact arenas
  kThrottle = 2,  // BMC stops escalating into cube fan-outs
  kCancel = 3,    // the governor is cancelling the heaviest job
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
// by at most one governor at a time otherwise.
extern std::atomic<uint8_t> g_pressure;
}  // namespace internal

// The pressure level the active governor last published (kNone when no
// governor is running). One relaxed load.
inline MemoryPressure CurrentMemoryPressure() {
  return static_cast<MemoryPressure>(
      internal::g_pressure.load(std::memory_order_relaxed));
}

// Publishes the calling thread's current solver heap estimate
// (Solver::MemoryBytes, refreshed at restart boundaries) into the job
// registered on this thread via MemoryGovernor::JobScope. A no-op on
// threads without a registered job (standalone solves, cube workers).
void PublishSolverMemory(uint64_t bytes);

class MemoryGovernor {
 public:
  struct Options {
    uint32_t budget_mb = 0;        // RSS budget; 0 disables every stage
    uint32_t poll_ms = 20;         // probe period
    uint32_t shed_percent = 75;    // kShed at >= this % of budget
    uint32_t throttle_percent = 90;  // kThrottle at >= this % of budget
  };

  struct Stats {
    uint64_t polls = 0;
    uint64_t jobs_cancelled = 0;  // kCancel-stage cancellations issued
    int64_t peak_rss_kb = 0;      // high-water RSS seen by the poll loop
  };

  explicit MemoryGovernor(const Options& options) : options_(options) {}
  ~MemoryGovernor();  // stops the thread (all JobScopes must be dead)

  MemoryGovernor(const MemoryGovernor&) = delete;
  MemoryGovernor& operator=(const MemoryGovernor&) = delete;

  // Starts (or restarts after Stop) the poll thread. Idempotent.
  void Start();
  // Stops and joins the poll thread and resets the published pressure to
  // kNone. Idempotent; Start may be called again afterwards.
  void Stop();

  // One running job's registration with the governor. Unregisters on
  // destruction; also binds the calling thread's PublishSolverMemory slot
  // to this job for its lifetime. Movable, not copyable.
  class JobScope {
   public:
    JobScope() = default;
    JobScope(JobScope&& other) noexcept { *this = std::move(other); }
    JobScope& operator=(JobScope&& other) noexcept;
    ~JobScope() { Release(); }

    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

    // Fires with CancelReason::kMemoryBudget when the governor sheds this
    // job. Compose into the job's token with CancellationToken::Any.
    CancellationToken token() const { return source_.token(); }

   private:
    friend class MemoryGovernor;
    JobScope(MemoryGovernor* governor, uint64_t id,
             CancellationSource source);
    void Release();

    MemoryGovernor* governor_ = nullptr;
    uint64_t id_ = 0;
    CancellationSource source_;
  };

  // Registers the calling thread's current job. Call from the thread that
  // runs the job (the scope binds that thread's solver-memory slot).
  JobScope Register(std::string label);

  Stats stats() const;

 private:
  struct Job {
    uint64_t id;
    std::string label;
    CancellationSource source;
    std::shared_ptr<std::atomic<uint64_t>> bytes;  // published footprint
  };

  void Loop();
  void Unregister(uint64_t id);
  // Cancels the heaviest not-yet-cancelled registered job. mu_ held.
  void CancelHeaviestLocked();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Job> jobs_;
  Stats stats_;
  uint64_t next_id_ = 1;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace aqed::sched
