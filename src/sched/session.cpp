#include "sched/session.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <numeric>

#include "sched/thread_pool.h"
#include "support/stats.h"
#include "support/status.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::sched {
namespace {

// The BMC bound a job of `group` runs to: its override, else bmc.max_bound.
uint32_t PropertyBound(const core::AqedOptions& options,
                       core::PropertyGroup group) {
  uint32_t bound = 0;
  switch (group) {
    case core::PropertyGroup::kFc: bound = options.fc_bound; break;
    case core::PropertyGroup::kRb: bound = options.rb_bound; break;
    case core::PropertyGroup::kSac: bound = options.sac_bound; break;
  }
  return bound != 0 ? bound : options.bmc.max_bound;
}

}  // namespace

VerificationSession::VerificationSession(core::SessionOptions options)
    : options_(options),
      monitor_(options.memory_budget_mb, options.sample_period_ms) {
  // Same screening whether the options were struct-poked or Builder-made:
  // an incoherent scheduling configuration (see SessionOptions::Validate)
  // fails at construction, not as a silent no-op mid-campaign.
  const Status valid = options_.Validate();
  AQED_CHECK(valid.ok(), "VerificationSession: " + valid.message());
  // Asking for a trace or metrics file is the opt-in that arms the
  // process-wide telemetry switch; everything else keys off it.
  if (!options_.trace_path.empty() || !options_.metrics_path.empty()) {
    telemetry::SetEnabled(true);
  }
}

core::JobHandle VerificationSession::Enqueue(core::AcceleratorBuilder build,
                                             core::AqedOptions options,
                                             std::string label) {
  const Status valid = options.Validate();
  AQED_CHECK(valid.ok(), "Enqueue with invalid options: " + valid.message());

  const size_t entry = num_entries_++;
  entry_sources_.emplace_back();

  // Cheapest property groups first: the RB and SAC monitors are small
  // counters/comparators whose refutations are easy, while FC carries the
  // symbolic orig/dup choice. A deadlocked design is reported in
  // milliseconds by the RB job instead of after deep FC refutations — and
  // under first-bug-wins it then cancels them outright.
  using core::PropertyGroup;
  for (const PropertyGroup group :
       {PropertyGroup::kRb, PropertyGroup::kSac, PropertyGroup::kFc}) {
    if (!core::Enables(options, group)) continue;
    const char* property = core::PropertyGroupName(group);
    pending_.push_back(
        {entry, label.empty() ? property : label + "/" + property, build,
         core::RestrictTo(options, group), PropertyBound(options, group),
         options.bmc.conflict_budget, options_.deadline_ms});
  }
  return core::JobHandle(entry, std::move(label));
}

CancellationToken VerificationSession::TokenFor(size_t entry) const {
  switch (options_.cancel) {
    case core::SessionOptions::CancelPolicy::kEntry:
      return CancellationToken::Any(session_source_.token(),
                                    entry_sources_[entry].token());
    case core::SessionOptions::CancelPolicy::kSession:
    case core::SessionOptions::CancelPolicy::kNone:
      // kNone still honors an explicit VerificationSession::Cancel().
      return session_source_.token();
  }
  return session_source_.token();
}

namespace {

// Live-job gauge for the flight recorder: how many verification jobs are
// between start and finish right now (pool workers *and* inline execution,
// unlike sched.pool.active). RAII so a throwing builder can't leak a count.
struct LiveJobGauge {
  LiveJobGauge() { telemetry::AddGauge("sched.jobs.live", 1); }
  ~LiveJobGauge() { telemetry::AddGauge("sched.jobs.live", -1); }
};

}  // namespace

void VerificationSession::RunJob(const PendingJob& job, core::JobResult& out) {
  out.entry = job.entry;
  out.label = job.label;
  out.attempt = job.attempt;
  CancellationToken token = TokenFor(job.entry);
  if (token.cancelled()) {
    // First-bug-wins (or an external cancel) landed before this job
    // started: report it untouched.
    out.cancelled = true;
    out.result.bmc.outcome = bmc::BmcResult::Outcome::kUnknown;
    out.result.bmc.unknown_reason = UnknownReasonFromCancel(token.reason());
    return;
  }
  LiveJobGauge live_job;
  // Register with the monitor when this attempt has a deadline or the
  // session a memory budget: the job can then be tripped or shed, and its
  // solver footprint is attributed to it. The scope is released the moment
  // the job returns, so a finished job is never tripped or shed late.
  SessionMonitor::JobScope monitor_scope;
  if (job.deadline_ms > 0 || options_.memory_budget_mb > 0) {
    monitor_scope = monitor_.Register(job.label, job.deadline_ms);
    token = CancellationToken::Any(token, monitor_scope.token());
  }
  // One span per executed attempt: this is the busy-time unit of the
  // Perfetto view, so per-thread job spans account for (almost) all of a
  // worker's occupied time.
  telemetry::Span span("sched.job:" + job.label,
                       {{"entry", static_cast<int64_t>(job.entry)},
                        {"attempt", job.attempt}});
  Stopwatch watch;
  auto ts = std::make_unique<ir::TransitionSystem>();
  const core::AcceleratorInterface acc = job.build(*ts);
  core::AqedOptions options = job.options;
  options.bmc.max_bound = job.bound;
  options.bmc.conflict_budget = job.conflict_budget;
  options.bmc.cancel = token;
  if (options.bmc.cube.enabled && options.bmc.cube.jobs == 0) {
    // Cube workers inherit the session's parallelism rather than hardware
    // concurrency: a --jobs 4 session escalating inside a job should not
    // suddenly fan out to 64 threads.
    options.bmc.cube.jobs =
        options_.jobs == 0 ? ThreadPool::HardwareJobs() : options_.jobs;
  }
  out.result = core::RunAqed(*ts, acc, options);
  monitor_scope.Release();
  out.wall_seconds = watch.ElapsedSeconds();
  // A counterexample that fails simulator replay is a checker bug, never a
  // design verdict: demote it to a hard per-job failure. It must not win
  // first-bug-wins (the "bug" is unsubstantiated) and must not read as
  // clean — JobResult::checker_error and the session stats carry it.
  if (out.result.bug_found && options.bmc.validate_counterexamples &&
      !out.result.bmc.trace_validated) {
    out.checker_error = true;
    out.result.bug_found = false;
    telemetry::AddCounter("sched.checker_errors", 1);
  }
  // A deadline expiry or a memory-governor shed is a per-job resource
  // verdict, not a sibling stopping us — only the latter counts as
  // "cancelled" for first-bug-wins accounting.
  out.cancelled = out.result.bmc.unknown_reason == UnknownReason::kCancelled;
  out.ts = std::move(ts);
  if (telemetry::Enabled()) {
    telemetry::AddCounter("sched.jobs", 1);
    telemetry::ObserveLatencyMs("sched.job_ms", out.wall_seconds * 1e3);
    span.AddArg("bug", out.result.bug_found ? 1 : 0);
    span.AddArg("frames", out.result.bmc.frames_explored);
  }

  if (out.result.bug_found) {
    switch (options_.cancel) {
      case core::SessionOptions::CancelPolicy::kEntry:
        entry_sources_[job.entry].Cancel(CancelReason::kFirstBugWins);
        break;
      case core::SessionOptions::CancelPolicy::kSession:
        session_source_.Cancel(CancelReason::kFirstBugWins);
        break;
      case core::SessionOptions::CancelPolicy::kNone:
        break;
    }
  }
}

void VerificationSession::RunBatch(const std::vector<PendingJob>& jobs,
                                   const std::vector<size_t>& batch,
                                   std::vector<core::JobResult>& results,
                                   SessionStats& stats) {
  const uint32_t workers =
      options_.jobs == 0 ? ThreadPool::HardwareJobs() : options_.jobs;
  if (workers <= 1 || batch.size() <= 1) {
    // Inline sequential execution: deterministic, pool-free, and exactly
    // the legacy CheckAccelerator order.
    for (size_t i : batch) RunJob(jobs[i], results[i]);
  } else {
    ThreadPool pool(std::min<uint32_t>(workers,
                                       static_cast<uint32_t>(batch.size())));
    for (size_t i : batch) {
      // Queue wait — submission to execution start — is timed from here so
      // the trace separates "sat in the FIFO behind siblings" from actual
      // verification work.
      const uint64_t submit_us =
          telemetry::Enabled() ? telemetry::NowMicros() : 0;
      pool.Submit([this, &jobs, &results, i, submit_us] {
        if (telemetry::Enabled()) {
          const uint64_t start_us = telemetry::NowMicros();
          telemetry::Tracer::Global().RecordComplete(
              "sched.queue_wait", submit_us, start_us,
              {{"job", static_cast<int64_t>(i)}});
          telemetry::ObserveLatencyMs(
              "sched.queue_wait_ms",
              static_cast<double>(start_us - submit_us) * 1e-3);
        }
        RunJob(jobs[i], results[i]);
      });
    }
    pool.Wait();
  }
  for (size_t i : batch) {
    const core::JobResult& job = results[i];
    stats.AddJob({.label = job.label,
                  .wall_seconds = job.wall_seconds,
                  .solver_seconds = job.result.bmc.seconds,
                  .conflicts = job.result.bmc.conflicts,
                  .frames_explored = job.result.bmc.frames_explored,
                  .cancelled = job.cancelled,
                  .bug_found = job.result.bug_found,
                  .checker_error = job.checker_error,
                  .attempt = job.attempt,
                  .unknown_reason = job.result.bmc.unknown_reason});
  }
}

bool VerificationSession::EscalateForRetry(const core::JobResult& result,
                                           PendingJob& job) const {
  // Only budget and deadline unknowns are retried. Cancelled jobs are
  // decided elsewhere (first-bug-wins) or abandoned (external cancel) —
  // re-running them would just be cancelled again.
  const UnknownReason reason = result.result.bmc.unknown_reason;
  if (reason != UnknownReason::kConflictBudget &&
      reason != UnknownReason::kDeadline) {
    return false;
  }
  if (TokenFor(job.entry).cancelled()) return false;
  bool escalated = false;
  if (job.conflict_budget > 0) {
    int64_t next = job.conflict_budget * 2;
    const int64_t cap = options_.retry.max_conflict_budget;
    if (cap > 0) next = std::min(next, cap);
    if (next > job.conflict_budget) {
      job.conflict_budget = next;
      escalated = true;
    }
  }
  if (job.deadline_ms > 0) {
    uint64_t next = static_cast<uint64_t>(job.deadline_ms) * 2;
    const uint32_t cap = options_.retry.max_deadline_ms;
    if (cap > 0) next = std::min<uint64_t>(next, cap);
    next = std::min<uint64_t>(next, UINT32_MAX);
    if (next > job.deadline_ms) {
      job.deadline_ms = static_cast<uint32_t>(next);
      escalated = true;
    }
  }
  // A retry with identical budgets would deterministically fail the same
  // way; only re-run when something actually grew.
  return escalated;
}

core::SessionResult VerificationSession::Wait() {
  // Export on *every* exit — including an exception thrown by a user
  // builder running inline — not just the happy-path return: a session
  // that dies mid-run is exactly the one whose telemetry matters most.
  // Declared before the wait span so the span ends (and is drained) first.
  struct ExportGuard {
    VerificationSession* session;
    ~ExportGuard() {
      if (telemetry::Enabled()) session->ExportTelemetry();
    }
  } export_guard{this};
  // The monitor runs only while Wait() executes jobs, and only when the
  // session arms a duty. The guard stops it on every exit, before the
  // export: no pressure level outlives the session round, and the final
  // flight-recorder sample lands in the exported samples.
  struct MonitorGuard {
    SessionMonitor& monitor;
    ~MonitorGuard() { monitor.Stop(); }
  } monitor_guard{monitor_};
  if (options_.deadline_ms > 0 || options_.memory_budget_mb > 0 ||
      (options_.sample_period_ms > 0 && telemetry::Enabled())) {
    monitor_.Start();
  }
  telemetry::Span span("sched.session.wait");
  Stopwatch watch;
  core::SessionResult result;
  std::vector<PendingJob> jobs = std::move(pending_);
  pending_.clear();
  result.jobs.resize(jobs.size());
  span.AddArg("jobs", static_cast<int64_t>(jobs.size()));

  std::vector<size_t> batch(jobs.size());
  std::iota(batch.begin(), batch.end(), 0);
  for (uint32_t attempt = 0;; ++attempt) {
    for (size_t i : batch) jobs[i].attempt = attempt;
    RunBatch(jobs, batch, result.jobs, result.stats);
    if (attempt >= options_.retry.max_retries) break;
    std::vector<size_t> retry;
    for (size_t i : batch) {
      if (EscalateForRetry(result.jobs[i], jobs[i])) retry.push_back(i);
    }
    if (retry.empty()) break;
    telemetry::AddCounter("sched.retries", retry.size());
    // Re-run escalated jobs into their original result slots: the final
    // JobResult (and the entry verdict) reflects the last attempt, while
    // the stats table keeps one row per executed attempt.
    for (size_t i : retry) result.jobs[i] = core::JobResult{};
    batch = std::move(retry);
  }

  result.num_entries = num_entries_;
  result.wall_seconds = watch.ElapsedSeconds();
  result.stats.set_wall_seconds(result.wall_seconds);
  span.End();
  return result;  // export_guard flushes trace/metrics/samples
}

void VerificationSession::ExportTelemetry() {
  std::vector<telemetry::TimeSeriesSample> samples = monitor_.TakeSamples();
  std::move(samples.begin(), samples.end(), std::back_inserter(samples_));
  std::vector<telemetry::TraceEvent> events =
      telemetry::Tracer::Global().Drain();
  std::move(events.begin(), events.end(), std::back_inserter(trace_log_));
  // Surface export failures instead of losing them: the session keeps
  // running (telemetry must never take the run down), but a full disk or
  // unwritable path is printed, not swallowed.
  if (!options_.trace_path.empty() &&
      !telemetry::WriteChromeTraceFile(options_.trace_path, trace_log_)) {
    std::fprintf(stderr, "[session] failed to write trace file %s\n",
                 options_.trace_path.c_str());
  }
  if (!options_.metrics_path.empty() &&
      !telemetry::WriteMetricsJsonlFile(
          options_.metrics_path,
          telemetry::MetricsRegistry::Global().Snapshot(), samples_)) {
    std::fprintf(stderr, "[session] failed to write metrics file %s\n",
                 options_.metrics_path.c_str());
  }
}

}  // namespace aqed::sched
