#include "bmc/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "sat/cube.h"
#include "sched/memory_pressure.h"
#include "sched/thread_pool.h"
#include "support/failpoint.h"
#include "support/stats.h"
#include "support/status.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::bmc {

namespace {

// Outcome of one depth's satisfiability query.
struct DepthQuery {
  sat::SolveResult result = sat::SolveResult::kUnknown;
  std::vector<sat::LBool> model;  // over the main solver's variables
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  bool cube_escalated = false;
  uint64_t cubes_solved = 0;
};

// Solves directly on the incremental main solver under the given conflict
// limit (negative: unlimited).
DepthQuery SolveIncremental(sat::Solver& main_solver, sat::Lit target,
                            int64_t max_conflicts) {
  DepthQuery query;
  const uint64_t conflicts_before = main_solver.stats().conflicts;
  const uint64_t decisions_before = main_solver.stats().decisions;
  const sat::Lit assumptions[] = {target};
  query.result = main_solver.Solve(
      assumptions, sat::SolveLimits{.max_conflicts = max_conflicts});
  query.conflicts = main_solver.stats().conflicts - conflicts_before;
  query.decisions = main_solver.stats().decisions - decisions_before;
  if (query.result == sat::SolveResult::kSat) query.model = main_solver.model();
  return query;
}

// One cube worker's outcome; slots are written by exactly one pool task.
struct CubeOutcome {
  sat::SolveResult result = sat::SolveResult::kUnknown;
  std::vector<sat::LBool> model;  // set on kSat
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  bool ran = false;  // false: skipped because a sibling already won
  bool concrete = false;  // kSat and the model passes the unroller's check
};

// Cube-and-conquer fan-out for one stalled depth: splits on the main
// solver's hottest VSIDS variables and solves every cube on its own clone
// of the incremental solver, concurrently. First SAT wins and cancels the
// sibling cubes; UNSAT requires every cube refuted. A clone carries no model
// check (sat::Solver::Clone), so a cube's model may be spurious under the
// data-path abstraction: such a model neither wins nor cancels, every other
// cube still runs, and the depth reports it as kSat for the caller to
// refine. So the cubes that run do not depend on the worker count.
DepthQuery SolveCubes(sat::Solver& main_solver, const Unroller& unroller,
                      sat::Lit target, const BmcOptions& options,
                      uint32_t depth, int64_t per_cube_budget) {
  DepthQuery query;
  query.cube_escalated = true;

  const sat::CubeSplitter splitter(
      {.num_split_vars = options.cube.num_split_vars,
       .seed = options.cube.seed});
  const std::vector<std::vector<sat::Lit>> cubes = splitter.Split(main_solver);
  if (cubes.empty()) return query;  // nothing free to branch on: kUnknown

  telemetry::Span span("bmc.cube_escalation",
                       {{"depth", depth},
                        {"cubes", static_cast<int64_t>(cubes.size())}});
  telemetry::AddCounter("bmc.cube_escalations", 1);

  // First-SAT-wins: the winner trips this source; sibling cubes observe it
  // through their solver token at the next search-loop poll and stop. The
  // parent token (session / deadline) stays merged in, so an outer cancel
  // still lands mid-cube.
  sched::CancellationSource won;
  sat::Solver::Options worker_options = options.solver_options;
  worker_options.cancel =
      sched::CancellationToken::Any(options.cancel, won.token());

  std::vector<CubeOutcome> outcomes(cubes.size());
  const uint32_t jobs = options.cube.jobs == 0
                            ? sched::ThreadPool::HardwareJobs()
                            : options.cube.jobs;
  {
    // A pool local to the escalation: a session job runs *on* a session
    // pool worker, and submitting subtasks to the pool you occupy deadlocks
    // its Wait(). Thread spin-up is noise next to the seconds of SAT search
    // that triggered the escalation.
    sched::ThreadPool pool(
        std::min<uint32_t>(jobs, static_cast<uint32_t>(cubes.size())));
    for (size_t i = 0; i < cubes.size(); ++i) {
      pool.Submit([&, i] {
        if (worker_options.cancel.cancelled()) return;  // sibling already won
        telemetry::Span cube_span(
            "bmc.cube_solve",
            {{"depth", depth}, {"cube", static_cast<int64_t>(i)}});
        const std::unique_ptr<sat::Solver> worker =
            main_solver.Clone(worker_options);
        std::vector<sat::Lit> assumptions = cubes[i];
        assumptions.push_back(target);
        CubeOutcome& out = outcomes[i];
        out.ran = true;
        out.result = worker->Solve(
            assumptions, sat::SolveLimits{.max_conflicts = per_cube_budget});
        out.conflicts = worker->stats().conflicts;
        out.decisions = worker->stats().decisions;
        telemetry::AddCounter("sat.cubes", 1);
        if (telemetry::Enabled()) {
          cube_span.AddArg("result", static_cast<int64_t>(out.result));
          cube_span.AddArg("conflicts",
                           static_cast<int64_t>(out.conflicts));
        }
        if (out.result == sat::SolveResult::kSat) {
          out.model = worker->model();
          out.concrete = unroller.ModelIsConcrete(out.model);
          if (out.concrete) won.Cancel(sched::CancelReason::kCubeSolved);
        }
      });
    }
    pool.Wait();
  }

  bool all_unsat = true;
  size_t sat_cube = cubes.size();
  size_t spurious_cube = cubes.size();
  for (size_t i = 0; i < cubes.size(); ++i) {
    const CubeOutcome& out = outcomes[i];
    if (out.ran) ++query.cubes_solved;
    query.conflicts += out.conflicts;
    query.decisions += out.decisions;
    // The lowest emitted index wins the report, for determinism.
    if (out.result == sat::SolveResult::kSat) {
      size_t& first = out.concrete ? sat_cube : spurious_cube;
      first = std::min(first, i);
    }
    if (out.result != sat::SolveResult::kUnsat) all_unsat = false;
  }
  if (sat_cube == cubes.size()) sat_cube = spurious_cube;
  if (sat_cube < cubes.size()) {
    query.result = sat::SolveResult::kSat;
    query.model = std::move(outcomes[sat_cube].model);
  } else if (all_unsat) {
    query.result = sat::SolveResult::kUnsat;
  }
  // else kUnknown: an un-won cube ran out of budget or an outer cancel
  // fired; the caller tells the two apart through options.cancel.
  if (telemetry::Enabled()) {
    span.AddArg("result", static_cast<int64_t>(query.result));
  }
  return query;
}

// One depth's query on the incremental solver, with the cube-and-conquer
// escalation policy layered on when enabled: a monolithic attempt under the
// escalation threshold first, then the cube fan-out for depths that stall.
DepthQuery SolveWithEscalation(sat::Solver& main_solver,
                               const Unroller& unroller, sat::Lit target,
                               const BmcOptions& options, uint32_t depth) {
  const int64_t budget = options.conflict_budget;
  const bool can_escalate =
      options.cube.enabled && options.cube.conflict_threshold > 0 &&
      // A depth budget at or under the threshold exhausts for real before
      // the escalation could fire.
      (budget < 0 || budget > options.cube.conflict_threshold);
  const int64_t first_attempt =
      can_escalate ? options.cube.conflict_threshold : budget;

  DepthQuery query = SolveIncremental(main_solver, target, first_attempt);
  if (query.result != sat::SolveResult::kUnknown || !can_escalate ||
      options.cancel.cancelled()) {
    return query;
  }

  // Pressure stage 2: a cube fan-out clones the incremental solver once
  // per worker — the worst possible move near the memory budget. Keep the
  // stalled monolithic verdict instead; the depth reports kUnknown with
  // the budget reason and the session's retry policy takes it from there.
  if (sched::CurrentMemoryPressure() >= sched::MemoryPressure::kThrottle) {
    telemetry::AddCounter("bmc.cube_throttled", 1);
    return query;
  }

  // The monolithic attempt stalled: hand the depth to the cubes. Each cube
  // gets the depth budget net of what the attempt already spent — cubes are
  // strictly easier instances, so the un-divided remainder is generous
  // without being unbounded.
  const int64_t per_cube_budget =
      budget < 0 ? -1
                 : std::max<int64_t>(
                       budget - options.cube.conflict_threshold, 1);
  DepthQuery cube_query = SolveCubes(main_solver, unroller, target, options,
                                     depth, per_cube_budget);
  cube_query.conflicts += query.conflicts;
  cube_query.decisions += query.decisions;
  return cube_query;
}

// Literal that holds iff some targeted bad predicate fires in `frame`.
sat::Lit AnyBad(bitblast::GateBuilder& gates, const Unroller& unroller,
                const std::vector<uint32_t>& targets, uint32_t frame) {
  std::vector<sat::Lit> bad_lits;
  bad_lits.reserve(targets.size());
  for (uint32_t bad_index : targets) {
    bad_lits.push_back(unroller.BadLit(frame, bad_index));
  }
  return gates.OrAll(bad_lits);
}

// The inductive step of k-induction, on its own solver over an unrolling
// from a free initial state. Check() decides step(k) for k = 1, 2, ... in
// turn, keeping ~bad@0 .. ~bad@k-1 and the simple-path constraints as
// permanent facts.
class InductiveStep {
 public:
  InductiveStep(const ir::TransitionSystem& ts,
                const std::vector<uint32_t>& targets,
                const sat::Solver::Options& solver_options)
      : targets_(targets),
        solver_(solver_options),
        gates_(solver_),
        blaster_(gates_),
        unroller_(ts, blaster_, /*free_initial_state=*/true) {
    unroller_.AddFrame();  // frame 0, so step(1) can assume ~bad@0
  }

  // step(k) for the next k: kUnsat proves the property, kSat leaves it
  // open at this k, kUnknown means the budget or a cancel stopped it.
  sat::SolveResult Check(int64_t conflict_budget) {
    const uint32_t k = unroller_.num_frames();
    TELEMETRY_SPAN("bmc.induction_step", {{"k", k}});
    // A fact that is constant false leaves no path for the step to extend
    // (a system without state has no two distinct frames, say), so step(k)
    // holds trivially; GateBuilder::Assert would abort on it.
    bool no_path = false;
    const auto assert_fact = [&](sat::Lit fact) {
      if (gates_.IsFalse(fact)) no_path = true;
      if (!no_path) gates_.Assert(fact);
    };
    assert_fact(~AnyBad(gates_, unroller_, targets_, k - 1));
    unroller_.AddFrame();
    for (uint32_t j = 0; j < k; ++j) {
      assert_fact(~unroller_.FramesEqual(j, k));
    }
    const sat::Lit bad = AnyBad(gates_, unroller_, targets_, k);
    if (no_path || gates_.IsFalse(bad) || solver_.inconsistent()) {
      return sat::SolveResult::kUnsat;
    }
    const sat::Lit assumptions[] = {bad};
    return solver_.Solve(assumptions,
                         sat::SolveLimits{.max_conflicts = conflict_budget});
  }

 private:
  const std::vector<uint32_t>& targets_;
  sat::Solver solver_;
  bitblast::GateBuilder gates_;
  bitblast::BitBlaster blaster_;
  Unroller unroller_;
};

}  // namespace

BmcResult RunBmc(const ir::TransitionSystem& ts, const BmcOptions& options_in) {
  const Status valid = ts.Validate();
  AQED_CHECK(valid.ok(), "RunBmc on invalid system: " + valid.message());

  // One token, threaded top-down: BmcOptions::cancel is forwarded into
  // every solver this run creates, so a cancel lands mid-refutation, not
  // only between depths. A solver_options token that observes *different*
  // sources is a wiring bug (the legacy two-knob plumbing silently
  // clobbered it here) — reject it loudly.
  AQED_CHECK(!options_in.solver_options.cancel.armed() ||
                 options_in.solver_options.cancel == options_in.cancel,
             "BmcOptions::solver_options.cancel conflicts with "
             "BmcOptions::cancel; arm only the top-level token");
  BmcOptions options = options_in;
  options.solver_options.cancel = options.cancel;

  Stopwatch stopwatch;
  sat::Solver solver(options.solver_options);
  bitblast::GateBuilder gates(solver);
  bitblast::BitBlaster blaster(gates);
  Unroller unroller(ts, blaster);

  std::vector<uint32_t> targets = options.bad_filter;
  if (targets.empty()) {
    targets.resize(ts.bads().size());
    std::iota(targets.begin(), targets.end(), 0);
  }
  AQED_CHECK(!targets.empty(), "RunBmc with no bad predicates");

  BmcResult result;
  bool cancelled = false;
  std::unique_ptr<InductiveStep> step;
  if (options.prove) {
    step = std::make_unique<InductiveStep>(ts, targets, options.solver_options);
  }
  // Runs after each refuted depth d, whose refutation is the base case of
  // step(d + 1). An undecided step is not "not inductive at k": proving
  // stops for good rather than spend further budgets on deeper steps (a
  // cancel that stopped it ends the run at the next depth).
  const auto step_proves = [&] {
    if (step == nullptr) return false;
    const sat::SolveResult step_result = step->Check(options.conflict_budget);
    if (step_result == sat::SolveResult::kUnknown) step.reset();
    if (step_result != sat::SolveResult::kUnsat) return false;
    result.outcome = BmcResult::Outcome::kProved;
    return true;
  };
  for (uint32_t depth = 0; depth < options.max_bound; ++depth) {
    if (options.cancel.cancelled()) {
      cancelled = true;
      break;
    }
    {
      TELEMETRY_SPAN("bmc.unroll", {{"depth", depth}});
      unroller.AddFrame();
    }
    result.frames_explored = depth + 1;
    telemetry::MaxGauge("bmc.depth_reached", depth + 1);
    // Live (not high-water) depth for the flight recorder's depth-vs-time
    // chart; with concurrent jobs the sampled value is whichever engine
    // wrote last — a representative progress signal, not an invariant.
    telemetry::SetGauge("bmc.current_depth", depth + 1);

    const sat::Lit any_bad = AnyBad(gates, unroller, targets, depth);
    if (gates.IsFalse(any_bad)) {  // statically unreachable here
      if (step_proves()) break;
      continue;
    }
    if (solver.inconsistent()) break;  // constraints are contradictory

    telemetry::Span solve_span("bmc.solve_depth", {{"depth", depth}});
    DepthQuery query;
    do {
      query = SolveWithEscalation(solver, unroller, any_bad, options, depth);
      result.conflicts += query.conflicts;
      result.decisions += query.decisions;
      if (query.cube_escalated) ++result.cube_escalations;
      result.cubes_solved += query.cubes_solved;
      // A cube's model skipped the model check that the main solver's
      // Solve applies: refine on it here, then solve the depth again.
    } while (query.result == sat::SolveResult::kSat && query.cube_escalated &&
             unroller.Refine(query.model));
    solve_span.End();
    if (query.result == sat::SolveResult::kUnknown) {
      if (options.cancel.cancelled()) {
        cancelled = true;
        break;
      }
      // Refutation budget exhausted at this depth. Counterexample queries
      // are usually far easier than refutations, so keep deepening — the
      // run is no longer a complete proof up to the bound, which the final
      // outcome reflects if nothing is found. Nor can induction prove
      // anything without this base case.
      result.refutation_complete = false;
      step.reset();
      continue;
    }
    if (query.result == sat::SolveResult::kUnsat) {
      if (step_proves()) break;
      continue;
    }

    // Counterexample found: identify the violated bad predicate.
    uint32_t hit = targets[0];
    for (uint32_t bad_index : targets) {
      const sat::Lit lit = unroller.BadLit(depth, bad_index);
      const sat::LBool value = query.model[lit.var()];
      const bool lit_true = lit.negated() ? value == sat::LBool::kFalse
                                          : value == sat::LBool::kTrue;
      if (lit_true) {
        hit = bad_index;
        break;
      }
    }
    result.outcome = BmcResult::Outcome::kCounterexample;
    result.trace = unroller.ExtractTrace(query.model, depth + 1, hit);
    if (options.validate_counterexamples) {
      TELEMETRY_SPAN("bmc.replay", {{"depth", depth}});
      // A counterexample whose replay fails on the simulator is a checker
      // bug (unroller/bit-blaster/solver disagreement with the IR
      // semantics), not a verdict about the design. It is reported with
      // trace_validated == false rather than aborting the process, so a
      // thousand-job campaign survives it and the scheduler can surface it
      // as a hard per-job failure (JobResult::checker_error). Chaos site
      // "bmc.replay": an error trigger fails the replay.
      result.trace_validated =
          !AQED_FAILPOINT("bmc.replay") && ReplayTrace(ts, result.trace);
    }
    break;
  }

  if (result.outcome == BmcResult::Outcome::kBoundReached &&
      (!result.refutation_complete || cancelled)) {
    result.outcome = BmcResult::Outcome::kUnknown;
    // A cancellation (deadline or first-bug-wins) trumps budget skips for
    // the reason code: it is what actually ended the run.
    result.unknown_reason =
        cancelled ? sched::UnknownReasonFromCancel(options.cancel.reason())
                  : UnknownReason::kConflictBudget;
  }
  result.seconds = stopwatch.ElapsedSeconds();
  result.clauses = solver.num_clauses();
  result.refinements = unroller.refinements();
  return result;
}

}  // namespace aqed::bmc
