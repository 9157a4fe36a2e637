// Top-level A-QED checker facade.
//
// Given an accelerator transition system and its interface description, the
// checker instruments the requested universal properties (FC always unless
// disabled; RB and SAC optionally), runs BMC, and decodes the outcome into a
// per-property verdict with a validated minimum-length counterexample.
//
// This is the A-QED analogue of "write the aqed_top C++ harness and hand the
// result to the model checker" in the paper's HLS flow.
//
// The preferred top-level entry point, CheckAccelerator, decomposes a check
// into one independent verification job per enabled property group and
// submits them to a sched::VerificationSession (see sched/session.h), which
// can run them concurrently with first-bug-wins cancellation. It returns a
// SessionResult aggregating *all* per-property verdicts, and owning the
// instrumented transition system of every completed run (for trace
// formatting) — there are no out-parameters.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aqed/fc_instrument.h"
#include "aqed/interface.h"
#include "aqed/rb_instrument.h"
#include "aqed/sac_instrument.h"
#include "bmc/engine.h"
#include "ir/transition_system.h"
#include "support/stats.h"

namespace aqed::core {

// Which universal property a counterexample violated.
enum class BugKind {
  kNone,
  kFunctionalConsistency,  // dup output differs from orig output
  kEarlyOutput,            // output produced before its input (FC footnote 1)
  kResponseBound,          // output did not arrive within tau (RB part 2)
  kInputStarvation,        // rdin stayed low beyond the bound (RB part 1)
  kSingleActionCorrectness,
};

const char* BugKindName(BugKind kind);

struct AqedOptions {
  bool check_fc = true;
  FcOptions fc;
  std::optional<RbOptions> rb;        // engaged when set
  std::optional<SpecFn> sac_spec;     // engaged when set
  SacOptions sac;
  bmc::BmcOptions bmc;
  // Per-property bound overrides for CheckAccelerator (0 = bmc.max_bound).
  // RB counterexamples sit `tau` cycles deeper than FC ones, so they
  // typically need a larger bound.
  uint32_t fc_bound = 0;
  uint32_t rb_bound = 0;
  uint32_t sac_bound = 0;

  class Builder;

  // The invariants Builder::Build() enforces, in non-fatal form: useful for
  // validating options assembled by struct-poking legacy call sites.
  Status Validate() const;
};

// The property groups a session verifies as separate jobs.
enum class PropertyGroup : uint8_t { kFc, kRb, kSac };

const char* PropertyGroupName(PropertyGroup group);  // "FC", "RB", "SAC"

bool Enables(const AqedOptions& options, PropertyGroup group);

// `options` with every group but `group` disabled and the other groups'
// bound overrides zeroed, so the result passes Validate() whenever
// `options` does. `group` must be enabled in `options`.
AqedOptions RestrictTo(const AqedOptions& options, PropertyGroup group);

// Fluent construction with Build()-time validation. The built product is
// the plain AqedOptions struct, so call sites can migrate incrementally —
// anything accepting AqedOptions accepts a Builder-made one.
//
//   const auto options = AqedOptions::Builder()
//                            .WithRb({.tau = 12})
//                            .WithBound(64)
//                            .WithRbBound(24)
//                            .Build();
//
// Build() aborts (AQED_CHECK) on incoherent requests: a per-property bound
// override above bmc.max_bound, a bound override for a property that is not
// enabled, an RB request with tau == 0, every property disabled, and so on.
// Use Validate() for the non-fatal form of the same checks.
class AqedOptions::Builder {
 public:
  Builder() = default;
  // Seeds the builder from an existing options struct (incremental
  // migration: tweak a legacy configuration fluently, re-validated).
  explicit Builder(AqedOptions seed) : options_(std::move(seed)) {}

  Builder& WithFc(FcOptions fc = {});      // enable FC (on by default)
  Builder& WithoutFc();                    // disable FC
  Builder& WithRb(RbOptions rb);           // enable RB
  Builder& WithSacSpec(SpecFn spec, SacOptions sac = {});  // enable SAC
  Builder& WithBound(uint32_t max_bound);  // global BMC bound
  Builder& WithFcBound(uint32_t bound);    // per-property overrides
  Builder& WithRbBound(uint32_t bound);
  Builder& WithSacBound(uint32_t bound);
  Builder& WithConflictBudget(int64_t budget);
  // Cube-and-conquer escalation for stalled depths (intra-property
  // parallelism; see bmc::BmcOptions::CubeEscalation). enabled is set for
  // the caller.
  Builder& WithCubes(bmc::BmcOptions::CubeEscalation cube);
  Builder& WithValidation(bool replay_counterexamples);
  Builder& WithSolverOptions(sat::Solver::Options solver_options);

  // Non-fatal validation of the current state (see AqedOptions::Validate).
  Status Validate() const { return options_.Validate(); }

  // Validates and returns the built options; aborts on violations.
  AqedOptions Build() const;

 private:
  AqedOptions options_;
};

struct AqedResult {
  bool bug_found = false;
  BugKind kind = BugKind::kNone;
  bmc::BmcResult bmc;

  // Counterexample length in clock cycles (0 when no bug). A bug found at
  // BMC depth d has a trace of d + 1 cycles — in particular a cycle-0
  // counterexample (bad state in the initial frame) reports length 1,
  // never 0; see the depth-zero regression tests in aqed_core_test.
  uint32_t cex_cycles() const {
    return bug_found ? bmc.trace.length() : 0;
  }
};

// Instruments `ts` in place and runs BMC over all generated properties in
// one combined model. `ts` must already contain the accelerator; the
// monitors are added on top (pre-silicon only — the A-QED module never
// ships with the design).
AqedResult RunAqed(ir::TransitionSystem& ts, const AcceleratorInterface& acc,
                   const AqedOptions& options);

// Builds the accelerator into the given (fresh) transition system and
// returns its interface. Sessions running jobs concurrently call the
// builder from worker threads (each invocation on its own fresh transition
// system), so builders must not mutate shared state.
using AcceleratorBuilder =
    std::function<AcceleratorInterface(ir::TransitionSystem&)>;

// ---------------------------------------------------------------------------
// Verification sessions
// ---------------------------------------------------------------------------

// How a session schedules the verification jobs submitted to it.
struct SessionOptions {
  // Worker threads executing jobs (the `--jobs N` knob). 1 = run jobs
  // inline in submission order (fully deterministic, matches the legacy
  // sequential CheckAccelerator); 0 = hardware concurrency.
  uint32_t jobs = 1;

  // First-bug-wins cancellation scope.
  enum class CancelPolicy {
    kNone,     // every job runs to completion
    kEntry,    // a bug cancels the remaining jobs of the same Enqueue()
    kSession,  // a bug cancels every outstanding job (portfolio hunts)
  };
  CancelPolicy cancel = CancelPolicy::kEntry;

  // Per-job wall-clock deadline in milliseconds (0 = none). The session
  // monitor (sched/monitor.h) trips the job's cancellation token when the
  // deadline expires; the job observes it at its next poll point (BMC depth
  // boundary / SAT search loop) and reports kUnknown with reason kDeadline.
  // This is what keeps one hard SAT instance from stalling a whole session.
  uint32_t deadline_ms = 0;

  // Process-RSS budget in MiB (0 = ungoverned). The session monitor
  // (sched/monitor.h) polls the resource probes against this budget while
  // Wait() runs and degrades in stages: at 75% solvers shed
  // learnt clauses and compact their arenas, at 90% the BMC engine stops
  // escalating into cube fan-outs, and at 100% the heaviest job is
  // cancelled with UnknownReason::kMemoryBudget (never retried) — a
  // governed verdict instead of the OOM killer's.
  uint32_t memory_budget_mb = 0;

  // Telemetry sinks (src/telemetry). Setting either path flips the
  // process-wide telemetry switch on; at the end of every Wait() the
  // session drains the span log into its own event log and (re)writes:
  //   trace_path   — Chrome trace-event JSON of every span recorded so far
  //                  (open in Perfetto / chrome://tracing),
  //   metrics_path — a JSONL snapshot of the global metrics registry.
  // Empty (the default) records nothing and costs one relaxed load per
  // instrumentation site. See the "Observability" section of README.md.
  std::string trace_path;
  std::string metrics_path;

  // Flight-recorder sampling period in milliseconds (0 = off). When set —
  // and telemetry is armed via the paths above — the session monitor
  // snapshots the metrics registry and the process resource probes
  // (RSS / CPU time / thread count, telemetry/resource.h) every period
  // while Wait() runs; the samples are exported as the `timeseries`
  // section of the metrics JSONL and plotted by the aqed-report tool.
  uint32_t sample_period_ms = 0;

  // Escalating-budget retry policy for inconclusive jobs. A job that ends
  // kUnknown because its conflict budget or deadline ran out (never because
  // a sibling's bug cancelled it) is re-queued with its conflict budget and
  // deadline doubled, up to `max_retries` extra attempts and the configured
  // caps. Retried attempts are accounted separately in SessionStats; the
  // job's final JobResult reflects the last attempt.
  struct RetryPolicy {
    uint32_t max_retries = 0;          // extra attempts per unknown job
    int64_t max_conflict_budget = -1;  // doubling cap (-1 = uncapped)
    uint32_t max_deadline_ms = 0;      // doubling cap (0 = uncapped)
  };
  RetryPolicy retry;

  class Builder;

  // The coherence rules Builder::Build() enforces, in non-fatal form:
  // a flight-recorder sampling period without a metrics file to land the
  // samples in, retry caps below the budgets they are supposed to cap, and
  // so on. VerificationSession's constructor checks this, so struct-poked
  // legacy options get the same screening as Builder-made ones.
  Status Validate() const;
};

// Fluent construction with Build()-time validation, mirroring
// AqedOptions::Builder: the built product is the plain SessionOptions
// struct, so anything accepting SessionOptions accepts a Builder-made one.
//
//   const auto session = core::SessionOptions::Builder()
//                            .WithJobs(8)
//                            .WithDeadlineMs(2000)
//                            .WithRetries(4)
//                            .Build();
//
// Build() aborts (AQED_CHECK) on incoherent requests: WithJobs(0) (say
// WithHardwareJobs() when you mean "all cores" — a literal zero is almost
// always a forgotten flag value), a sample period without a metrics path,
// negative deadlines or budgets fed through the int64 parameters, and retry
// caps that undercut the starting deadline. Use Validate() for the
// non-fatal form of the same checks.
class SessionOptions::Builder {
 public:
  Builder() = default;
  // Seeds the builder from an existing options struct (incremental
  // migration: tweak a legacy configuration fluently, re-validated).
  explicit Builder(SessionOptions seed) : options_(std::move(seed)) {}

  Builder& WithJobs(uint32_t jobs);        // rejects 0 at Build() time
  Builder& WithHardwareJobs();             // one worker per hardware thread
  Builder& WithCancelPolicy(SessionOptions::CancelPolicy policy);
  Builder& WithDeadlineMs(int64_t deadline_ms);         // rejects negatives
  Builder& WithMemoryBudgetMb(int64_t budget_mb);       // rejects negatives
  Builder& WithTracePath(std::string path);
  Builder& WithMetricsPath(std::string path);
  Builder& WithSamplePeriodMs(int64_t period_ms);       // rejects negatives
  Builder& WithRetries(uint32_t max_retries);
  Builder& WithRetryPolicy(SessionOptions::RetryPolicy retry);

  // Non-fatal validation of the current state (see SessionOptions::Validate).
  Status Validate() const;

  // Validates and returns the built options; aborts on violations.
  SessionOptions Build() const;

 private:
  SessionOptions options_;
  // Builder-only screens: the struct keeps jobs == 0 as the documented
  // "hardware concurrency" sentinel (benches pass --jobs 0 on purpose), but
  // a *constructed* configuration asking for zero workers is a bug unless
  // it went through WithHardwareJobs().
  bool explicit_zero_jobs_ = false;
  bool negative_argument_ = false;
};

// Typed handle to one VerificationSession entry — the unit an Enqueue()
// call creates. Replaces the bare size_t the session used to return: the
// handle carries the label it was enqueued under (for reports and error
// messages) and makes it impossible to feed a job count, loop counter, or
// other stray integer to a SessionResult accessor unnoticed. The wrapped
// index is still reachable (index()) for map keys and legacy call sites.
class JobHandle {
 public:
  JobHandle() = default;
  JobHandle(size_t index, std::string label)
      : index_(index), label_(std::move(label)) {}

  size_t index() const { return index_; }
  const std::string& label() const { return label_; }

  bool operator==(const JobHandle& other) const {
    return index_ == other.index_;
  }

 private:
  size_t index_ = 0;
  std::string label_;
};

// Outcome of one verification job (one property group on one design copy).
struct JobResult {
  size_t entry = 0;        // index returned by the Enqueue() that spawned it
  std::string label;       // "<entry label>/<property group>"
  AqedResult result;
  bool cancelled = false;  // stopped (or never started) by first-bug-wins
  // Hard failure: the job found a counterexample whose simulator replay
  // failed (BmcResult::trace_validated == false with validation enabled).
  // That is a checker bug, never a design verdict: the bug_found flag is
  // suppressed, the job counts in SessionStats::num_checker_errors() and
  // num_unknown(), and fault::ClassifyEntry folds its entry to kUnknown.
  bool checker_error = false;
  // Attempt index of the run this result reflects (0 = first; > 0 means
  // the session's retry policy re-ran the job with escalated budgets).
  uint32_t attempt = 0;
  double wall_seconds = 0; // job wall time inside the scheduler
  // The instrumented transition system of this run (null when the job was
  // cancelled before it started) — owned here so traces can be formatted
  // without out-parameters.
  std::unique_ptr<ir::TransitionSystem> ts;
};

// Aggregated session outcome: every job's verdict, in submission order.
//
// Entry-level accessors mirror the legacy sequential CheckAccelerator
// semantics: the *reported* job of an entry is its first submitted job that
// found a bug (property groups are submitted cheapest-first: RB, SAC, FC),
// or the entry's last completed job when clean.
struct SessionResult {
  std::vector<JobResult> jobs;  // submission order
  size_t num_entries = 0;
  double wall_seconds = 0;      // Wait() wall time for the whole session
  SessionStats stats;           // per-job wall/solver accounting

  // nullptr when no job of `entry` found a bug.
  const JobResult* FirstBug(size_t entry) const;
  // The entry's reported job (first bug, else last completed, else last).
  const JobResult& Reported(size_t entry = 0) const;

  bool bug_found(size_t entry = 0) const;
  BugKind kind(size_t entry = 0) const;
  uint32_t cex_cycles(size_t entry = 0) const;
  // kNone when the entry found a bug or every job completed; otherwise the
  // reason code of the entry's first inconclusive job.
  UnknownReason unknown_reason(size_t entry = 0) const;
  // Jobs whose verdict is still undecided after retries — inconclusive or a
  // checker error — in entries that found no bug (0 = fully decided).
  size_t num_unknown() const;
  // The reported run's AqedResult / instrumented transition system.
  const AqedResult& aqed(size_t entry = 0) const;
  const ir::TransitionSystem& ts(size_t entry = 0) const;

  // Accumulated solver effort across the entry's jobs (legacy
  // CheckAccelerator reported the accumulated totals of its sequential
  // property runs).
  double solver_seconds(size_t entry = 0) const;
  uint64_t conflicts(size_t entry = 0) const;

  // Handle-taking overloads: the preferred accessors when the Enqueue()
  // handle is in hand (benches, tests, campaigns iterate their handles
  // instead of re-deriving entry indices).
  bool bug_found(const JobHandle& h) const { return bug_found(h.index()); }
  BugKind kind(const JobHandle& h) const { return kind(h.index()); }
  uint32_t cex_cycles(const JobHandle& h) const {
    return cex_cycles(h.index());
  }
  const AqedResult& aqed(const JobHandle& h) const { return aqed(h.index()); }
  double solver_seconds(const JobHandle& h) const {
    return solver_seconds(h.index());
  }
  uint64_t conflicts(const JobHandle& h) const {
    return conflicts(h.index());
  }
};

// Preferred top-level entry point: checks each enabled property group (FC,
// RB, SAC) on a *separately instrumented copy* of the design, so each BMC
// run only carries the monitor it needs — a cone-of-influence reduction
// that makes the (dominant) UNSAT refutations far cheaper. The property
// jobs are submitted to a verification session as one entry; `session`
// controls parallelism and cancellation (the default runs them sequentially
// with first-bug-wins, matching the legacy behavior).
SessionResult CheckAccelerator(const AcceleratorBuilder& build,
                               const AqedOptions& options,
                               const SessionOptions& session = {});

}  // namespace aqed::core
