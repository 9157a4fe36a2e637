// Composed verification of a decomposed accelerator.
//
// A DecomposedSession turns a Decomposition into one verification job per
// sub-accelerator and runs them on a sched::VerificationSession — so a
// decomposed check inherits the whole scheduling stack for free: the worker
// pool, first-bug-wins cancellation (SessionOptions::cancel), the session
// monitor's deadlines and memory budget, escalating-budget retries, and
// telemetry.
// The per-sub verdicts fold into one DecompositionResult carrying the cut
// coverage report.
//
// Two solve-avoidance layers sit in front of the scheduler, both keyed by
// the fragment's ir::AnonymousStructuralDigest (pristine, un-instrumented)
// plus the service::ConfigDigest of its options and its BMC depth:
//   * in-run dedup — isomorphic fragments (the stages of a uniform
//     pipeline) collapse to one enqueued job whose verdict all aliases
//     share, turning an S-stage clean check into one solve;
//   * the PR 8 service::SolveCache (optional, borrowed) — fragments
//     decided in a previous run, or inside another design entirely, are
//     answered without solving. Undecided (kUnknown) verdicts are never
//     cached or deduped onto — an unknown is a budget artifact of one run.
//
// Soundness posture (see decomposition.h): a kSurvived composed verdict
// means no fragment has an FC violation within bound under the
// over-approximated cut environment — no missed bugs. A fragment bug may be
// spurious at the cut; assumptions narrow that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqed/checker.h"
#include "decomp/decomposition.h"
#include "fault/campaign.h"
#include "service/cache.h"
#include "support/verdict.h"

namespace aqed::decomp {

struct DecompOptions {
  // Per-fragment instrumentation/BMC options. A SubAccelerator bound
  // override replaces bmc.max_bound (and clears the per-property bound
  // overrides) for that fragment only.
  core::AqedOptions aqed;
  // Scheduling: jobs, cancel policy, deadlines, retries, memory budget,
  // telemetry sinks — passed through to the underlying session. The
  // default cancel policy (kEntry) cancels within one fragment's property
  // jobs; use kSession for first-bug-wins across the whole decomposition.
  core::SessionOptions session;
  // Optional cross-run solve cache (borrowed; must outlive the session).
  service::SolveCache* cache = nullptr;
};

// Verdict for one sub-accelerator, folded from its property jobs by
// fault::ClassifyEntry (kDetectedFc/..., kSurvived = clean within bound,
// kUnknown = undecided, a checker error included).
struct SubVerdict : fault::EntryVerdict {
  std::string name;
  // Anonymous structural digest of the pristine fragment — the cache key
  // component, reported so runs can be correlated across sessions.
  uint64_t fragment_digest = 0;
  bool cached = false;   // answered by the SolveCache, not solved here
  bool deduped = false;  // alias of an isomorphic fragment solved this run
};

struct DecompositionResult {
  std::string name;
  std::vector<SubVerdict> subs;  // declaration order
  CutCoverage coverage;
  double wall_seconds = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint32_t jobs_enqueued = 0;  // distinct fragments actually solved
  uint32_t deduped = 0;        // fragments answered by an isomorphic twin

  // First detected fragment bug in declaration order (nullptr = none).
  const SubVerdict* FirstBug() const;
  bool bug_found() const { return FirstBug() != nullptr; }
  size_t num_unknown() const;
  // Every fragment survived: the composed design is verified within the
  // fragments' bounds (modulo the cut over-approximation being spuriously
  // violated — which would show up as a bug, not as clean).
  bool clean() const { return !bug_found() && num_unknown() == 0; }

  // Order-independent digest over (name, classification, kind, cex) — equal
  // across --jobs 1 / --jobs N runs of the same decomposition.
  uint64_t VerdictDigest() const;
  std::string ToTable() const;
};

class DecomposedSession {
 public:
  DecomposedSession(Decomposition decomposition, DecompOptions options);

  // Validates the decomposition, fans one job per (non-cached,
  // non-duplicate) fragment across the scheduler, and aggregates. Blocks
  // until every fragment has a verdict.
  StatusOr<DecompositionResult> Run();

 private:
  Decomposition decomposition_;
  DecompOptions options_;
};

}  // namespace aqed::decomp
