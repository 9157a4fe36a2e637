#include "aqed/checker.h"

#include <utility>

#include "sched/session.h"
#include "support/status.h"
#include "telemetry/telemetry.h"

namespace aqed::core {

const char* BugKindName(BugKind kind) {
  switch (kind) {
    case BugKind::kNone:
      return "none";
    case BugKind::kFunctionalConsistency:
      return "FC";
    case BugKind::kEarlyOutput:
      return "FC(early-output)";
    case BugKind::kResponseBound:
      return "RB";
    case BugKind::kInputStarvation:
      return "RB(starvation)";
    case BugKind::kSingleActionCorrectness:
      return "SAC";
  }
  return "?";
}

const char* PropertyGroupName(PropertyGroup group) {
  switch (group) {
    case PropertyGroup::kFc: return "FC";
    case PropertyGroup::kRb: return "RB";
    case PropertyGroup::kSac: return "SAC";
  }
  return "?";
}

bool Enables(const AqedOptions& options, PropertyGroup group) {
  switch (group) {
    case PropertyGroup::kFc: return options.check_fc;
    case PropertyGroup::kRb: return options.rb.has_value();
    case PropertyGroup::kSac: return options.sac_spec.has_value();
  }
  return false;
}

AqedOptions RestrictTo(const AqedOptions& options, PropertyGroup group) {
  AQED_CHECK(Enables(options, group),
             std::string("RestrictTo a disabled property: ") +
                 PropertyGroupName(group));
  AqedOptions only = options;
  if (group != PropertyGroup::kFc) {
    only.check_fc = false;
    only.fc_bound = 0;
  }
  if (group != PropertyGroup::kRb) {
    only.rb.reset();
    only.rb_bound = 0;
  }
  if (group != PropertyGroup::kSac) {
    only.sac_spec.reset();
    only.sac_bound = 0;
  }
  return only;
}

// ---------------------------------------------------------------------------
// Options validation + fluent builder
// ---------------------------------------------------------------------------

Status AqedOptions::Validate() const {
  if (!check_fc && !rb.has_value() && !sac_spec.has_value()) {
    return Status::Error("every property is disabled");
  }
  if (bmc.max_bound == 0) {
    return Status::Error("bmc.max_bound must be at least 1");
  }
  const auto check_bound = [&](uint32_t bound, bool enabled,
                               const char* name) {
    if (bound == 0) return Status::Ok();
    if (!enabled) {
      return Status::Error(std::string(name) +
                                     " set for a property that is not "
                                     "enabled");
    }
    if (bound > bmc.max_bound) {
      return Status::Error(std::string(name) +
                                     " exceeds bmc.max_bound");
    }
    return Status::Ok();
  };
  if (Status s = check_bound(fc_bound, check_fc, "fc_bound"); !s.ok()) {
    return s;
  }
  if (Status s = check_bound(rb_bound, rb.has_value(), "rb_bound"); !s.ok()) {
    return s;
  }
  if (Status s = check_bound(sac_bound, sac_spec.has_value(), "sac_bound");
      !s.ok()) {
    return s;
  }
  if (rb.has_value() && rb->tau == 0) {
    return Status::Error("rb.tau must be at least 1");
  }
  if (bmc.cube.enabled) {
    if (bmc.cube.conflict_threshold <= 0) {
      return Status::Error(
          "cube.conflict_threshold must be positive when cubes are enabled");
    }
    if (bmc.cube.num_split_vars == 0 || bmc.cube.num_split_vars > 16) {
      return Status::Error("cube.num_split_vars must be in [1, 16]");
    }
  }
  if (rb.has_value() && rb->in_min == 0) {
    return Status::Error("rb.in_min must be at least 1");
  }
  if (bmc.prove) {
    // Jobs, journals, caches and the wire have no word for a proof yet.
    return Status::Error(
        "bmc.prove is not supported in A-QED checks yet (ROADMAP item 4(b))");
  }
  return Status::Ok();
}

AqedOptions::Builder& AqedOptions::Builder::WithFc(FcOptions fc) {
  options_.check_fc = true;
  options_.fc = std::move(fc);
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithoutFc() {
  options_.check_fc = false;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithRb(RbOptions rb) {
  options_.rb = std::move(rb);
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithSacSpec(SpecFn spec,
                                                        SacOptions sac) {
  options_.sac_spec = std::move(spec);
  options_.sac = std::move(sac);
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithBound(uint32_t max_bound) {
  options_.bmc.max_bound = max_bound;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithFcBound(uint32_t bound) {
  options_.fc_bound = bound;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithRbBound(uint32_t bound) {
  options_.rb_bound = bound;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithSacBound(uint32_t bound) {
  options_.sac_bound = bound;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithConflictBudget(
    int64_t budget) {
  options_.bmc.conflict_budget = budget;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithCubes(
    bmc::BmcOptions::CubeEscalation cube) {
  cube.enabled = true;
  options_.bmc.cube = cube;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithValidation(
    bool replay_counterexamples) {
  options_.bmc.validate_counterexamples = replay_counterexamples;
  return *this;
}

AqedOptions::Builder& AqedOptions::Builder::WithSolverOptions(
    sat::Solver::Options solver_options) {
  options_.bmc.solver_options = std::move(solver_options);
  return *this;
}

AqedOptions AqedOptions::Builder::Build() const {
  const Status valid = options_.Validate();
  AQED_CHECK(valid.ok(), "AqedOptions::Builder: " + valid.message());
  return options_;
}

// ---------------------------------------------------------------------------
// SessionOptions: validation + fluent builder
// ---------------------------------------------------------------------------

Status SessionOptions::Validate() const {
  // The flight recorder's samples are exported exclusively through the
  // metrics JSONL; arming it with nowhere to land them is a silent no-op
  // the caller certainly did not intend.
  if (sample_period_ms > 0 && metrics_path.empty()) {
    return Status::Error(
        "sample_period_ms set without a metrics_path to export the samples");
  }
  // A retry cap below the starting budget makes the escalation ladder
  // degenerate: the first doubling would immediately clamp back under the
  // value the first attempt already failed with.
  if (retry.max_deadline_ms > 0 && deadline_ms > retry.max_deadline_ms) {
    return Status::Error("retry.max_deadline_ms is below deadline_ms");
  }
  // Retry caps without retries are dead configuration — either a forgotten
  // WithRetries or a typo'd field.
  if (retry.max_retries == 0 &&
      (retry.max_deadline_ms > 0 || retry.max_conflict_budget > 0)) {
    return Status::Error("retry caps set with max_retries == 0");
  }
  return Status::Ok();
}

SessionOptions::Builder& SessionOptions::Builder::WithJobs(uint32_t jobs) {
  options_.jobs = jobs;
  explicit_zero_jobs_ = jobs == 0;
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithHardwareJobs() {
  options_.jobs = 0;
  explicit_zero_jobs_ = false;
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithCancelPolicy(
    SessionOptions::CancelPolicy policy) {
  options_.cancel = policy;
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithDeadlineMs(
    int64_t deadline_ms) {
  if (deadline_ms < 0 || deadline_ms > UINT32_MAX) {
    negative_argument_ = true;
    return *this;
  }
  options_.deadline_ms = static_cast<uint32_t>(deadline_ms);
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithMemoryBudgetMb(
    int64_t budget_mb) {
  if (budget_mb < 0 || budget_mb > UINT32_MAX) {
    negative_argument_ = true;
    return *this;
  }
  options_.memory_budget_mb = static_cast<uint32_t>(budget_mb);
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithTracePath(
    std::string path) {
  options_.trace_path = std::move(path);
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithMetricsPath(
    std::string path) {
  options_.metrics_path = std::move(path);
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithSamplePeriodMs(
    int64_t period_ms) {
  if (period_ms < 0 || period_ms > UINT32_MAX) {
    negative_argument_ = true;
    return *this;
  }
  options_.sample_period_ms = static_cast<uint32_t>(period_ms);
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithRetries(
    uint32_t max_retries) {
  options_.retry.max_retries = max_retries;
  return *this;
}

SessionOptions::Builder& SessionOptions::Builder::WithRetryPolicy(
    SessionOptions::RetryPolicy retry) {
  options_.retry = retry;
  return *this;
}

Status SessionOptions::Builder::Validate() const {
  if (negative_argument_) {
    return Status::Error(
        "a negative (or overflowing) deadline/budget/period was given");
  }
  if (explicit_zero_jobs_) {
    return Status::Error(
        "WithJobs(0): say WithHardwareJobs() for hardware concurrency");
  }
  return options_.Validate();
}

SessionOptions SessionOptions::Builder::Build() const {
  const Status valid = Validate();
  AQED_CHECK(valid.ok(), "SessionOptions::Builder: " + valid.message());
  return options_;
}

// ---------------------------------------------------------------------------
// RunAqed: one combined model over every requested property
// ---------------------------------------------------------------------------

AqedResult RunAqed(ir::TransitionSystem& ts, const AcceleratorInterface& acc,
                   const AqedOptions& options) {
  // Map from bad index to bug kind as we instrument.
  std::vector<std::pair<uint32_t, BugKind>> kinds;

  telemetry::Span instrument_span("aqed.instrument");
  if (options.check_fc) {
    const FcInstrumentation fc = InstrumentFc(ts, acc, options.fc);
    kinds.emplace_back(fc.fc_bad_index, BugKind::kFunctionalConsistency);
    if (fc.has_early_output_bad) {
      kinds.emplace_back(fc.early_output_bad_index, BugKind::kEarlyOutput);
    }
  }
  if (options.rb.has_value()) {
    RbOptions rb_options = *options.rb;
    if (rb_options.progress_qualifier == ir::kNullNode) {
      rb_options.progress_qualifier = acc.progress_qualifier;
    }
    const RbInstrumentation rb = InstrumentRb(ts, acc, rb_options);
    kinds.emplace_back(rb.rb_bad_index, BugKind::kResponseBound);
    if (rb.has_starve_bad) {
      kinds.emplace_back(rb.starve_bad_index, BugKind::kInputStarvation);
    }
  }
  if (options.sac_spec.has_value()) {
    const SacInstrumentation sac =
        InstrumentSac(ts, acc, *options.sac_spec, options.sac);
    kinds.emplace_back(sac.sac_bad_index,
                       BugKind::kSingleActionCorrectness);
  }
  AQED_CHECK(!kinds.empty(), "RunAqed with every property disabled");
  instrument_span.End();

  bmc::BmcOptions bmc_options = options.bmc;
  if (bmc_options.bad_filter.empty()) {
    for (const auto& [bad_index, kind] : kinds) {
      bmc_options.bad_filter.push_back(bad_index);
    }
  }

  AqedResult result;
  result.bmc = bmc::RunBmc(ts, bmc_options);
  if (result.bmc.found_bug()) {
    result.bug_found = true;
    for (const auto& [bad_index, kind] : kinds) {
      if (bad_index == result.bmc.trace.bad_index) {
        result.kind = kind;
        break;
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// SessionResult accessors
// ---------------------------------------------------------------------------

const JobResult* SessionResult::FirstBug(size_t entry) const {
  for (const JobResult& job : jobs) {
    if (job.entry == entry && job.result.bug_found) return &job;
  }
  return nullptr;
}

const JobResult& SessionResult::Reported(size_t entry) const {
  if (const JobResult* bug = FirstBug(entry)) return *bug;
  const JobResult* reported = nullptr;
  for (const JobResult& job : jobs) {
    if (job.entry != entry) continue;
    // Prefer the last *completed* job (its transition system exists for
    // trace/report formatting); fall back to the last job if everything
    // was cancelled before starting.
    if (reported == nullptr || !job.cancelled || reported->cancelled) {
      reported = &job;
    }
  }
  AQED_CHECK(reported != nullptr,
             "SessionResult::Reported: no jobs for entry");
  return *reported;
}

bool SessionResult::bug_found(size_t entry) const {
  return FirstBug(entry) != nullptr;
}

BugKind SessionResult::kind(size_t entry) const {
  const JobResult* bug = FirstBug(entry);
  return bug ? bug->result.kind : BugKind::kNone;
}

uint32_t SessionResult::cex_cycles(size_t entry) const {
  const JobResult* bug = FirstBug(entry);
  return bug ? bug->result.cex_cycles() : 0;
}

UnknownReason SessionResult::unknown_reason(size_t entry) const {
  if (bug_found(entry)) return UnknownReason::kNone;
  for (const JobResult& job : jobs) {
    if (job.entry == entry &&
        job.result.bmc.unknown_reason != UnknownReason::kNone) {
      return job.result.bmc.unknown_reason;
    }
  }
  return UnknownReason::kNone;
}

size_t SessionResult::num_unknown() const {
  size_t unknown = 0;
  for (const JobResult& job : jobs) {
    // Jobs cancelled because a sibling already found the entry's bug are
    // decided, not unknown — first-bug-wins is the intended outcome there.
    if ((job.checker_error ||
         job.result.bmc.outcome == bmc::BmcResult::Outcome::kUnknown) &&
        !bug_found(job.entry)) {
      ++unknown;
    }
  }
  return unknown;
}

const AqedResult& SessionResult::aqed(size_t entry) const {
  return Reported(entry).result;
}

const ir::TransitionSystem& SessionResult::ts(size_t entry) const {
  const JobResult& reported = Reported(entry);
  AQED_CHECK(reported.ts != nullptr,
             "SessionResult::ts: reported job never ran (cancelled)");
  return *reported.ts;
}

double SessionResult::solver_seconds(size_t entry) const {
  double total = 0;
  for (const JobResult& job : jobs) {
    if (job.entry == entry) total += job.result.bmc.seconds;
  }
  return total;
}

uint64_t SessionResult::conflicts(size_t entry) const {
  uint64_t total = 0;
  for (const JobResult& job : jobs) {
    if (job.entry == entry) total += job.result.bmc.conflicts;
  }
  return total;
}

// ---------------------------------------------------------------------------
// CheckAccelerator: thin wrapper over a single-entry session
// ---------------------------------------------------------------------------

SessionResult CheckAccelerator(const AcceleratorBuilder& build,
                               const AqedOptions& options,
                               const SessionOptions& session_options) {
  sched::VerificationSession session(session_options);
  session.Enqueue(build, options);
  return session.Wait();
}

}  // namespace aqed::core
