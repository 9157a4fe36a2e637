// Parallel verification scheduler.
//
// A VerificationSession collects independent verification jobs — one per
// enabled property group of each Enqueue()d design — and executes them on a
// fixed-size thread pool with cooperative first-bug-wins cancellation: the
// moment a job finds a bug, the remaining jobs in its cancellation scope
// (same entry, or the whole session in portfolio-hunt mode) are told to
// stop via a CancellationToken threaded into the BMC depth loop and the SAT
// solver's search loop.
//
// Resource governance (SessionOptions::deadline_ms, memory_budget_mb,
// retry): each job can carry a wall-clock deadline and the session a memory
// budget, both enforced by the session monitor (sched/monitor.h), which
// also runs the flight recorder (sample_period_ms). The monitor is one
// thread, started by Wait() only when the session arms one of those three
// duties; each job registers with it once and its one cancellation source
// fires with kDeadline or kMemoryBudget. Jobs that come back kUnknown
// because a conflict budget or deadline ran out are re-queued with doubled
// budgets (up to the configured caps and retry count). This is what makes
// thousand-job fault campaigns survivable: one hard SAT instance costs one
// deadline, not the whole session.
//
// This is the scheduling layer the functional-decomposition follow-up work
// builds on: A-QED scales by splitting one verification problem into many
// independent sub-checks, and per-design/per-property checks are an
// embarrassingly parallel portfolio.
//
// Determinism: jobs start in submission order (FIFO pool). With jobs == 1
// the session executes them inline, sequentially, and is bit-for-bit the
// legacy CheckAccelerator behavior. With jobs > 1 the set of *reported*
// verdicts is unchanged for single-bug workloads; only which clean sibling
// jobs get cancelled mid-run (instead of completing) may vary. Retry
// rounds are themselves deterministic when job outcomes are (conflict
// budgets are deterministic; wall-clock deadlines are not and should be
// generous when reproducibility matters).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqed/checker.h"
#include "sched/cancellation.h"
#include "sched/monitor.h"
#include "telemetry/export.h"
#include "telemetry/trace.h"

namespace aqed::sched {

class VerificationSession {
 public:
  explicit VerificationSession(core::SessionOptions options = {});

  // Expands the enabled property groups of `options` (cheapest first: RB,
  // SAC, FC — small monitors refute easily, FC carries the symbolic
  // orig/dup choice) into one pending job each, all under one entry.
  // Returns a typed handle that SessionResult's accessors take — it carries
  // the entry index plus the entry label, so result lookups can't be fed a
  // stray loop counter. `label` prefixes the job labels
  // ("<label>/<property>").
  //
  // `build` is invoked once per job, each time on a fresh transition
  // system, possibly from several worker threads at once — it must not
  // mutate shared state.
  core::JobHandle Enqueue(core::AcceleratorBuilder build,
                          core::AqedOptions options, std::string label = {});

  // Requests cancellation of every outstanding job (e.g. an external
  // timeout). Running jobs stop at their next poll point.
  void Cancel() { session_source_.Cancel(CancelReason::kExternal); }

  // Executes all pending jobs — plus any retry rounds the options ask for —
  // and blocks until every one has completed or been cancelled. May be
  // called repeatedly; each call runs the jobs enqueued since the previous
  // one (entry indices keep counting up, and the returned result covers
  // only the new jobs).
  core::SessionResult Wait();

  const core::SessionOptions& options() const { return options_; }

 private:
  struct PendingJob {
    size_t entry;
    std::string label;
    core::AcceleratorBuilder build;
    core::AqedOptions options;  // exactly one property group enabled
    uint32_t bound;             // per-property bound (resolved)
    // Governed resources of the next attempt (escalated between rounds).
    int64_t conflict_budget;    // -1 = unlimited
    uint32_t deadline_ms;       // 0 = none
    uint32_t attempt = 0;
  };

  void RunJob(const PendingJob& job, core::JobResult& out);
  // Runs the given batch (indices into `jobs`/`results`) inline or on the
  // pool, then records one JobStat per executed attempt.
  void RunBatch(const std::vector<PendingJob>& jobs,
                const std::vector<size_t>& batch,
                std::vector<core::JobResult>& results,
                SessionStats& stats);
  // True when the job's attempt ended kUnknown for a retryable reason and
  // escalation would actually change something; doubles the job's budgets
  // in place when so.
  bool EscalateForRetry(const core::JobResult& result, PendingJob& job) const;
  CancellationToken TokenFor(size_t entry) const;

  // Drains the global tracer (and the flight-recorder samples) into the
  // session-owned logs and (re)writes the configured trace/metrics files.
  // Invoked by an RAII guard on *every* exit from Wait() when telemetry is
  // on — normal return, checker errors, deadline cancellation, or an
  // exception out of a builder — so a governed session never loses its
  // telemetry to the failure it was recording.
  void ExportTelemetry();

  core::SessionOptions options_;
  CancellationSource session_source_;
  std::vector<CancellationSource> entry_sources_;  // indexed by entry
  std::vector<PendingJob> pending_;
  size_t num_entries_ = 0;
  // Deadlines, memory budget and flight recorder; its thread runs only
  // while Wait() executes jobs of a session that arms one of them.
  SessionMonitor monitor_;
  // Session-owned span log: every event drained so far, accumulated across
  // Wait() calls so the exported trace covers the whole session.
  std::vector<telemetry::TraceEvent> trace_log_;
  // Flight-recorder samples drained from the monitor, accumulated across
  // Wait() calls like the span log.
  std::vector<telemetry::TimeSeriesSample> samples_;
};

}  // namespace aqed::sched
