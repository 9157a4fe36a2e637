// Bounded model checking engine, with an optional k-induction proof.
//
// Iteratively deepens the unrolling and, at each depth, asks the SAT solver
// (under an activation assumption) whether any registered bad predicate is
// reachable exactly at that depth. Iterating depths from 0 guarantees that a
// reported counterexample is one of minimum length — the property behind the
// paper's Observation 3 (short counterexamples for easy debug).
//
// BMC only refutes up to a bound. With BmcOptions::prove, each refuted
// depth d is also the base case of k-induction at k = d + 1, and a second
// solver checks the inductive step over a free initial state:
//
//   step(k):  ~bad@0 .. ~bad@k-1 && bad@k is UNSAT, with the k+1 states
//             pairwise distinct (simple-path constraints).
//
// Base cases at every depth below k plus step(k) prove the bad states
// unreachable at every depth. The simple-path constraints make the method
// complete for finite-state systems: without them an unreachable lasso that
// never touches a bad state can block convergence forever.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bitblast/bitblaster.h"
#include "bmc/trace.h"
#include "bmc/unroller.h"
#include "ir/transition_system.h"
#include "sat/solver.h"
#include "sched/cancellation.h"

namespace aqed::bmc {

struct BmcOptions {
  // Maximum number of time frames to explore (trace length limit).
  uint32_t max_bound = 64;
  // Replay every counterexample on the simulator before reporting it.
  bool validate_counterexamples = true;
  // Restrict the check to these bad indices (empty = all).
  std::vector<uint32_t> bad_filter;
  // Per-depth SAT conflict budget; kUnknown on exhaustion. -1 = unlimited.
  int64_t conflict_budget = -1;
  // Cooperative cancellation (first-bug-wins sessions): checked at every
  // depth and forwarded into the SAT solver's search loop. This is the ONE
  // cancellation token of a BMC run, threaded top-down into every solver it
  // creates (including cube workers). Leave solver_options.cancel unarmed:
  // RunBmc rejects (AQED_CHECK) a solver_options token that observes
  // different sources than this one — the old two-knob plumbing silently
  // clobbered it, which hid real wiring bugs.
  sched::CancellationToken cancel;

  // Cube-and-conquer escalation for a stalled depth (see DESIGN.md,
  // "Intra-property parallelism"). When the incremental solve of one depth
  // exceeds `conflict_threshold` conflicts, the engine abandons it, splits
  // the query into up to 2^num_split_vars cubes on the top VSIDS decision
  // variables (sat::CubeSplitter), clones the incremental solver per cube
  // (sat::Solver::Clone), and solves the cubes concurrently on a
  // sched::ThreadPool local to the escalation. The first SAT cube wins and
  // cancels its siblings (CancelReason::kCubeSolved); the depth is refuted
  // only when every cube comes back UNSAT. Soundness: the cubes partition
  // the search space, and each worker starts from a clone of the exact
  // incremental formula.
  struct CubeEscalation {
    bool enabled = false;
    // Split variables m: up to 2^m cubes per escalated depth.
    uint32_t num_split_vars = 3;
    // Conflicts granted to the monolithic attempt before escalating. Must
    // be positive when enabled — the attempt both filters depths that never
    // needed splitting and builds the VSIDS profile the splitter reads.
    int64_t conflict_threshold = 20000;
    // Cube worker threads: 0 = inherit (the session's worker count when run
    // under a VerificationSession, hardware concurrency standalone).
    uint32_t jobs = 0;
    // Cube emission order seed (sat::CubeSplitOptions::seed).
    uint64_t seed = 0;
  };
  CubeEscalation cube;

  sat::Solver::Options solver_options;

  // Try to prove the bad states unreachable at every depth by k-induction
  // (see the top of this file). Each inductive step solve gets the same
  // conflict_budget and cancel token as a depth. Proving stops for good
  // after an undecided step or a skipped depth (a proof needs every base
  // case); the run then goes on as a bounded one.
  bool prove = false;
};

struct BmcResult {
  enum class Outcome {
    kCounterexample,  // a bad state is reachable; `trace` holds the witness
    kBoundReached,    // no bad state reachable within max_bound frames
    kUnknown,         // solver budget exhausted
    kProved,          // unreachable at every depth (BmcOptions::prove);
                      // frames_explored holds the induction depth k
  };
  Outcome outcome = Outcome::kBoundReached;
  Trace trace;                 // valid when kCounterexample
  bool trace_validated = false;  // replayed successfully on the simulator
  // False when some depth's refutation exhausted the conflict budget and
  // was skipped (the search continued deeper; found bugs remain sound).
  bool refutation_complete = true;
  // Why the outcome is kUnknown (kNone otherwise): budget exhaustion at
  // some depth, a tripped per-job deadline, a memory-governor shed, or
  // cooperative cancellation — so stats tables and retry policies can tell
  // them apart. A run stopped through BmcOptions::cancel reports one of the
  // last three; frames_explored then reflects the progress made.
  UnknownReason unknown_reason = UnknownReason::kNone;
  uint32_t frames_explored = 0;
  double seconds = 0;
  // The base solver's work; inductive step solves are not counted.
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t clauses = 0;
  // Cube-and-conquer accounting (zero unless BmcOptions::cube fired):
  // depths whose monolithic attempt stalled and was split, and the total
  // cube solves executed across them (cancelled siblings included).
  uint64_t cube_escalations = 0;
  uint64_t cubes_solved = 0;
  // Data-path abstraction rounds (bmc::Unroller::Refine) that concretized
  // nodes after a spurious model; zero for systems without a DataPathHint.
  uint64_t refinements = 0;

  bool found_bug() const { return outcome == Outcome::kCounterexample; }
};

// Runs BMC on `ts` (which must Validate()) and returns the outcome.
BmcResult RunBmc(const ir::TransitionSystem& ts, const BmcOptions& options);

}  // namespace aqed::bmc
