#include "bmc/kinduction.h"

#include <numeric>

#include "support/failpoint.h"
#include "support/stats.h"
#include "support/status.h"

namespace aqed::bmc {

KInductionResult RunKInduction(const ir::TransitionSystem& ts,
                               const KInductionOptions& options) {
  const Status valid = ts.Validate();
  AQED_CHECK(valid.ok(), "RunKInduction on invalid system: " + valid.message());

  Stopwatch stopwatch;
  KInductionResult result;

  std::vector<uint32_t> targets = options.bad_filter;
  if (targets.empty()) {
    targets.resize(ts.bads().size());
    std::iota(targets.begin(), targets.end(), 0);
  }
  AQED_CHECK(!targets.empty(), "RunKInduction with no bad predicates");

  const sat::SolveLimits limits{.max_conflicts = options.conflict_budget};

  // Base-case machinery: unrolling from the reset state.
  sat::Solver base_solver(options.solver_options);
  bitblast::GateBuilder base_gates(base_solver);
  bitblast::BitBlaster base_blaster(base_gates);
  Unroller base(ts, base_blaster);

  // Inductive-step machinery: unrolling from a free symbolic state.
  sat::Solver step_solver(options.solver_options);
  bitblast::GateBuilder step_gates(step_solver);
  bitblast::BitBlaster step_blaster(step_gates);
  Unroller step(ts, step_blaster, /*free_initial_state=*/true);

  auto any_bad = [&](bitblast::GateBuilder& gates, Unroller& unroller,
                     uint32_t frame) {
    std::vector<sat::Lit> lits;
    lits.reserve(targets.size());
    for (uint32_t bad_index : targets) {
      lits.push_back(unroller.BadLit(frame, bad_index));
    }
    return gates.OrAll(lits);
  };

  // step frame 0 exists before the loop so step(k) can assume ~bad@0..k-1.
  step.AddFrame();

  for (uint32_t k = 1; k <= options.max_k; ++k) {
    // --- base(k): bad reachable within k frames from reset? ---------------
    base.AddFrame();
    const uint32_t depth = k - 1;  // newly added frame index
    const sat::Lit base_bad = any_bad(base_gates, base, depth);
    if (!base_gates.IsFalse(base_bad) && !base_solver.inconsistent()) {
      const sat::Lit assumptions[] = {base_bad};
      const sat::SolveResult base_result =
          base_solver.Solve(assumptions, limits);
      if (base_result == sat::SolveResult::kUnknown) {
        // A budget or cancellation stopped the base case: without it no
        // step result means anything, so the run is inconclusive.
        result.unknown_reason = base_solver.stats().last_unknown;
        break;
      }
      if (base_result == sat::SolveResult::kSat) {
        // Identify which bad fired and extract the witness.
        uint32_t hit = targets[0];
        for (uint32_t bad_index : targets) {
          if (base_solver.ModelValue(base.BadLit(depth, bad_index)) ==
              sat::LBool::kTrue) {
            hit = bad_index;
            break;
          }
        }
        result.outcome = KInductionResult::Outcome::kCounterexample;
        result.k = k;
        result.trace = base.ExtractTrace(base_solver.model(), depth + 1, hit);
        // A failed replay is reported (trace_validated == false), never an
        // abort; the failpoint fails it on purpose, as in RunBmc.
        if (options.validate_counterexamples) {
          result.trace_validated =
              !AQED_FAILPOINT("bmc.replay") && ReplayTrace(ts, result.trace);
        }
        result.seconds = stopwatch.ElapsedSeconds();
        return result;
      }
    }

    // --- step(k): ~bad@0..k-1 (permanent facts) and bad@k (assumption) ----
    // A fact that is constant false leaves no path for the step case to
    // extend (a system without state has no two distinct frames, say), so
    // step(k) holds trivially; GateBuilder::Assert would abort on it.
    bool no_path = false;
    const auto assert_fact = [&](sat::Lit fact) {
      if (step_gates.IsFalse(fact)) no_path = true;
      if (!no_path) step_gates.Assert(fact);
    };
    // Permanently assert that frame k-1 is good (accumulates over k).
    assert_fact(~any_bad(step_gates, step, k - 1));
    step.AddFrame();  // frame k now exists
    if (options.simple_path) {
      // The new frame must differ from every earlier one.
      for (uint32_t j = 0; j < k; ++j) {
        assert_fact(~step.FramesEqual(j, k));
      }
    }
    const sat::Lit step_bad = any_bad(step_gates, step, k);
    if (no_path || step_gates.IsFalse(step_bad) ||
        step_solver.inconsistent()) {
      result.outcome = KInductionResult::Outcome::kProved;
      result.k = k;
      break;
    }
    const sat::Lit assumptions[] = {step_bad};
    const sat::SolveResult step_result = step_solver.Solve(assumptions, limits);
    if (step_result == sat::SolveResult::kUnsat) {
      result.outcome = KInductionResult::Outcome::kProved;
      result.k = k;
      break;
    }
    if (step_result == sat::SolveResult::kUnknown) {
      // An undecided step is not "not inductive at k": stop rather than
      // spend further budgets (or ignore a cancellation) on deeper k.
      result.unknown_reason = step_solver.stats().last_unknown;
      break;
    }
  }

  result.seconds = stopwatch.ElapsedSeconds();
  return result;
}

}  // namespace aqed::bmc
