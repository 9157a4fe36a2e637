// The traced pipeline: one property job re-run through the verifier's public
// functions, in the order bmc::RunBmc calls them, with a span around each
// layer call.
//
//   accel builder -> core::Instrument{Fc,Rb,Sac}
//   -> per depth: bmc::Unroller::AddFrame, bitblast::GateBuilder::OrAll,
//      sat::Solver::Solve
//   -> bmc::Unroller::ExtractTrace, bmc::ReplayTrace
//
// The replica must reproduce the untraced job exactly (verdict,
// counterexample length, conflict count); CompareWithJob checks that, which
// is what makes the per-layer numbers a measurement of the program's own
// work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqed/checker.h"
#include "span_log.h"
#include "support/status.h"

namespace aqed::perfbench {

// One property job as sched::VerificationSession::Enqueue expands it: a
// single property group of one design, with its resolved bound.
struct PropertyJob {
  std::string label;
  core::AcceleratorBuilder build;
  core::AqedOptions options;  // exactly one property group enabled
  uint32_t bound = 0;
};

// The session's expansion of one Enqueue: RB, SAC, FC, cheapest first.
std::vector<PropertyJob> ExpandJobs(const core::AcceleratorBuilder& build,
                                    const core::AqedOptions& options,
                                    const std::string& label);

// Builds and instruments the job's design and validates the result: the
// benchmark's set-up check that every planned job is well formed.
Status PreflightJob(const PropertyJob& job);

struct ReplicaOutcome {
  bmc::BmcResult::Outcome outcome = bmc::BmcResult::Outcome::kBoundReached;
  core::BugKind kind = core::BugKind::kNone;
  uint32_t cex_cycles = 0;
  bool trace_validated = false;
  uint32_t frames = 0;
  uint64_t solves = 0;
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t clauses = 0;
  uint64_t replays = 0;
};

// Runs `job` through the traced pipeline. Every span it records has job id
// `job_id`; the root span is named "job".
ReplicaOutcome ReplicateJob(const PropertyJob& job, SpanLog& log,
                            uint64_t job_id);

// Empty when the replica matches the untraced job's verdict,
// counterexample length and conflict count; otherwise what differs.
std::string CompareWithJob(const ReplicaOutcome& replica,
                           const core::JobResult& job);

}  // namespace aqed::perfbench
