// k-induction engine: unbounded safety proofs on top of the BMC substrate.
//
// BMC can only refute properties up to a bound; k-induction can *prove* them
// for all depths (one of the paper's future-work directions for improving
// A-QED scalability beyond plain BMC). For increasing k it checks:
//
//   base(k):  no bad state is reachable within k frames from reset
//             (ordinary BMC);
//   step(k):  from an arbitrary (not necessarily reachable) state, k
//             consecutive good frames imply a good frame k+1 — i.e.
//             ~bad@0 .. ~bad@k-1 && bad@k is UNSAT over a free initial
//             state.
//
// If both hold, the property holds at every depth. Optional simple-path
// (loop-freeness) constraints — all k+1 states pairwise distinct — make the
// method complete for finite-state systems: without them, an unreachable
// lasso that never touches a bad state can block convergence forever.
#pragma once

#include <cstdint>
#include <vector>

#include "bmc/engine.h"
#include "ir/transition_system.h"

namespace aqed::bmc {

struct KInductionOptions {
  uint32_t max_k = 16;
  // Add pairwise state-distinctness constraints to the inductive step.
  bool simple_path = true;
  // Restrict to these bad indices (empty = all, proved conjointly).
  std::vector<uint32_t> bad_filter;
  bool validate_counterexamples = true;
  // Conflict cap of every base and step solve (-1 = unlimited). A solve
  // that exhausts it ends the run kUnknown with kConflictBudget.
  int64_t conflict_budget = -1;
  // Both solvers' options; a fired solver_options.cancel ends the run
  // kUnknown with the reason it fired for.
  sat::Solver::Options solver_options;
};

struct KInductionResult {
  enum class Outcome {
    kProved,          // the bad states are unreachable at every depth
    kCounterexample,  // reachable: `trace` holds the witness
    kUnknown,         // not (k-)inductive within max_k, or a base or
                      // step solve was stopped by a budget or cancellation
  };
  Outcome outcome = Outcome::kUnknown;
  // Why a base or step solve came back undecided (budget, deadline,
  // cancelled, memory budget); kNone when kUnknown only means "not
  // inductive within max_k", and for every other outcome.
  UnknownReason unknown_reason = UnknownReason::kNone;
  uint32_t k = 0;  // proof induction depth / counterexample depth
  Trace trace;
  // The witness replayed on the simulator. False on a counterexample means
  // the replay failed: a checker error, not a design verdict.
  bool trace_validated = false;
  double seconds = 0;

  bool proved() const { return outcome == Outcome::kProved; }
};

KInductionResult RunKInduction(const ir::TransitionSystem& ts,
                               const KInductionOptions& options);

}  // namespace aqed::bmc
