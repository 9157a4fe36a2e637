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

    // any_bad holds iff some targeted bad predicate fires at this depth.
    std::vector<sat::Lit> bad_lits;
    bad_lits.reserve(targets.size());
    for (uint32_t bad_index : targets) {
      bad_lits.push_back(unroller.BadLit(depth, bad_index));
    }
    const sat::Lit any_bad = gates.OrAll(bad_lits);
    if (gates.IsFalse(any_bad)) continue;  // statically unreachable here
    if (solver.inconsistent()) break;       // constraints are contradictory

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
      // outcome reflects if nothing is found.
      result.refutation_complete = false;
      continue;
    }
    if (query.result == sat::SolveResult::kUnsat) continue;

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
