// Session monitor: one background thread that watches a verification
// session's running jobs from outside. It serves three duties:
//
//   deadlines     — a job registered with a wall-clock budget has its
//                   CancellationSource fired with CancelReason::kDeadline
//                   when the budget expires (counter sched.watchdog.trips).
//                   The job observes the trip at its next cooperative poll
//                   point — the BMC depth boundary or the SAT solver's
//                   search/restart loop — and returns kUnknown with the
//                   deadline reason, so one hard SAT instance can no longer
//                   stall a whole session.
//   memory budget — every 20 ms the process RSS is probed against the
//                   budget and a MemoryPressure level is published
//                   (sched/memory_pressure.h, gauge governor.pressure); at
//                   kCancel the heaviest registered job is cancelled with
//                   CancelReason::kMemoryBudget, one per poll (counter
//                   governor.jobs_cancelled).
//   flight recorder — every sample period the metrics registry and the
//                   resource probes are snapshotted into a ring of
//                   kSampleCapacity samples that drops its *oldest* first.
//                   The metrics JSONL exporter writes them as "sample"
//                   lines and aqed-report plots them as depth-vs-time /
//                   RSS-vs-time charts. Start() records one sample and
//                   Stop() a final one, so even a sub-period run has a
//                   start/stop pair. Sampling needs telemetry enabled at
//                   Start() and is compiled out with -DAQED_TELEMETRY=OFF.
//
// The thread sleeps until the earliest of the next armed deadline, the next
// pressure poll and the next sample. Deadlines keep their own precision
// rather than being rounded to the poll grid; a poll and a sample that fall
// due together share one resource probe.
//
// The thread runs only between Start() and Stop(). VerificationSession
// starts it in Wait() when it arms at least one duty, so a session that
// arms none stays thread-free. A job registers once (Register returns an
// RAII JobScope): the scope holds the job's deadline, its solver-footprint
// slot and one CancellationSource, and releasing it disarms all three, so a
// finished job can never be tripped or shed late.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/cancellation.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/resource.h"

namespace aqed::sched {

class SessionMonitor {
 public:
  // Flight-recorder ring capacity; older samples drop first past it.
  static constexpr size_t kSampleCapacity = 4096;

  // `memory_budget_mb` == 0 disables the memory duty, `sample_period_ms`
  // == 0 the flight recorder. `registry` replaces the global metrics
  // registry as the one the flight recorder samples (tests inject one).
  explicit SessionMonitor(uint32_t memory_budget_mb = 0,
                          uint32_t sample_period_ms = 0,
                          telemetry::MetricsRegistry* registry = nullptr);
  ~SessionMonitor();  // Stop()s (all JobScopes must be dead)

  SessionMonitor(const SessionMonitor&) = delete;
  SessionMonitor& operator=(const SessionMonitor&) = delete;

  // Starts the thread (records the start sample when sampling). No-op when
  // already running.
  void Start();
  // Stops and joins the thread, resets the published pressure to kNone when
  // budgeted, and records the final sample when sampling. No-op when idle;
  // safe to call from several threads at once. Start may follow again.
  void Stop();
  bool running() const;

  // One running job's registration. Releases on destruction. Movable, not
  // copyable.
  class JobScope {
   public:
    JobScope() = default;
    JobScope(JobScope&& other) noexcept { *this = std::move(other); }
    JobScope& operator=(JobScope&& other) noexcept;
    ~JobScope() { Release(); }

    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

    // Fires with kDeadline or kMemoryBudget (the first reason sticks).
    // Compose into the job's token with CancellationToken::Any.
    CancellationToken token() const { return source_.token(); }

    // Disarms the deadline, withdraws the job from memory shedding and
    // unbinds the calling thread's PublishSolverMemory slot. A source that
    // already fired stays cancelled (cancellation is monotonic).
    void Release();

   private:
    friend class SessionMonitor;
    JobScope(SessionMonitor* monitor, uint64_t id, CancellationSource source)
        : monitor_(monitor), id_(id), source_(std::move(source)) {}

    SessionMonitor* monitor_ = nullptr;
    uint64_t id_ = 0;
    CancellationSource source_;
  };

  // Registers the calling thread's current job, with a wall-clock deadline
  // `deadline_ms` from now (0 = none). Call from the thread that runs the
  // job: the scope binds that thread's solver-memory slot. Deadlines fire
  // only while the monitor runs.
  JobScope Register(std::string label, uint32_t deadline_ms);

  // Moves the recorded samples out, oldest first. Callable while running;
  // later samples accumulate afresh.
  std::vector<telemetry::TimeSeriesSample> TakeSamples();
  // Samples lost to the ring bound so far.
  uint64_t num_dropped() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    uint64_t id;
    std::string label;
    CancellationSource source;
    std::unique_ptr<std::atomic<uint64_t>> bytes;  // published footprint
    Clock::time_point deadline;  // Clock::time_point::max() = none
  };

  void Loop();
  void Unregister(uint64_t id);
  // The memory duty's poll: publishes the pressure level for `usage` and,
  // at kCancel, cancels the heaviest live job. mu_ held.
  void GovernLocked(const telemetry::ResourceUsage& usage);
  // Appends one flight-recorder sample to the ring. mu_ held.
  void SampleLocked(const telemetry::ResourceUsage& usage);

  const uint32_t budget_mb_;
  const uint32_t sample_period_ms_;
  telemetry::MetricsRegistry& registry_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Job> jobs_;
  uint64_t next_id_ = 1;
  bool running_ = false;
  bool stop_ = false;
  bool sampling_ = false;  // fixed by Start()
  std::deque<telemetry::TimeSeriesSample> ring_;
  uint64_t num_dropped_ = 0;
  std::thread thread_;
};

}  // namespace aqed::sched
