// Cube-and-conquer tests: the VSIDS cube splitter (exhaustive, disjoint,
// seed-deterministic), solver cloning for cube workers, the BMC escalation
// policy (cube verdicts identical to monolithic solving on buggy and clean
// designs), first-SAT-wins sibling cancellation under real concurrency
// (exercised by the tsan preset), spurious cube models under FC's data-path
// abstraction, and the one-token cancellation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "accel/memctrl.h"
#include "aqed/checker.h"
#include "bmc/engine.h"
#include "sat/cube.h"
#include "sat/solver.h"
#include "sched/cancellation.h"
#include "sched/session.h"

namespace aqed {
namespace {

using sat::Lit;
using sat::Solver;
using sat::SolveResult;
using sat::Var;

Lit Pos(Var v) { return Lit(v, false); }
Lit NegL(Var v) { return Lit(v, true); }

// Unsatisfiable pigeonhole instance: hard enough to stall small budgets and
// to build a real VSIDS activity profile.
void AddPigeonhole(Solver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (auto& row : at) {
    for (auto& var : row) var = solver.NewVar();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Pos(at[p][h]));
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(solver.AddClause({NegL(at[p1][h]), NegL(at[p2][h])}));
      }
    }
  }
}

// --- cube splitter -----------------------------------------------------------

TEST(CubeSplitterTest, EmitsEverySignCombinationOverTheSameVars) {
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(solver.NewVar());
  // Non-unit clauses only, so every variable stays free at level 0.
  ASSERT_TRUE(solver.AddClause({Pos(vars[0]), Pos(vars[1])}));
  ASSERT_TRUE(solver.AddClause({Pos(vars[2]), Pos(vars[3])}));

  const sat::CubeSplitter splitter({.num_split_vars = 2});
  const auto cubes = splitter.Split(solver);
  ASSERT_EQ(cubes.size(), 4u);

  std::set<Var> split_vars;
  std::set<std::vector<bool>> signs;
  for (const auto& cube : cubes) {
    ASSERT_EQ(cube.size(), 2u);
    std::vector<bool> sign;
    for (const Lit lit : cube) {
      split_vars.insert(lit.var());
      sign.push_back(lit.negated());
    }
    signs.insert(sign);
  }
  // Two distinct variables, and all four sign combinations — the cubes are
  // pairwise disjoint and jointly exhaustive.
  EXPECT_EQ(split_vars.size(), 2u);
  EXPECT_EQ(signs.size(), 4u);
}

TEST(CubeSplitterTest, SameSeedSameSolverStateGivesIdenticalCubes) {
  Solver a, b;
  AddPigeonhole(a, 6);
  AddPigeonhole(b, 6);
  // Burn the same number of conflicts into both so the activity profiles
  // (and therefore the split variables) match.
  EXPECT_EQ(a.Solve({}, sat::SolveLimits{.max_conflicts = 50}),
            SolveResult::kUnknown);
  EXPECT_EQ(b.Solve({}, sat::SolveLimits{.max_conflicts = 50}),
            SolveResult::kUnknown);

  const sat::CubeSplitter splitter({.num_split_vars = 3, .seed = 42});
  const auto cubes_a = splitter.Split(a);
  const auto cubes_b = splitter.Split(b);
  ASSERT_EQ(cubes_a.size(), 8u);
  EXPECT_EQ(cubes_a, cubes_b);
  // And re-splitting the same solver reproduces the list exactly.
  EXPECT_EQ(splitter.Split(a), cubes_a);
}

TEST(CubeSplitterTest, SeedShufflesTheEmissionOrder) {
  Solver solver;
  AddPigeonhole(solver, 6);
  EXPECT_EQ(solver.Solve({}, sat::SolveLimits{.max_conflicts = 50}),
            SolveResult::kUnknown);
  const auto cubes_a =
      sat::CubeSplitter({.num_split_vars = 3, .seed = 1}).Split(solver);
  const auto cubes_b =
      sat::CubeSplitter({.num_split_vars = 3, .seed = 2}).Split(solver);
  ASSERT_EQ(cubes_a.size(), cubes_b.size());
  // Same cube *set* (the split variables are seed-independent) ...
  const auto keyed = [](const std::vector<std::vector<Lit>>& cubes) {
    std::set<std::vector<uint32_t>> keys;
    for (const auto& cube : cubes) {
      std::vector<uint32_t> key;
      for (const Lit lit : cube) key.push_back(lit.index());
      keys.insert(std::move(key));
    }
    return keys;
  };
  EXPECT_EQ(keyed(cubes_a), keyed(cubes_b));
  // ... in a different order.
  EXPECT_NE(cubes_a, cubes_b);
}

TEST(CubeSplitterTest, CapsAtTheFreeVariableCount) {
  Solver solver;
  const Var x = solver.NewVar();
  const Var y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x)}));  // fixes x at level 0
  (void)y;
  const auto cubes = sat::CubeSplitter({.num_split_vars = 3}).Split(solver);
  // Only y is free: 2^1 cubes of one literal each, never branching on x.
  ASSERT_EQ(cubes.size(), 2u);
  for (const auto& cube : cubes) {
    ASSERT_EQ(cube.size(), 1u);
    EXPECT_EQ(cube[0].var(), y);
  }
}

TEST(CubeSplitterTest, NoFreeVariablesGivesNoCubes) {
  Solver empty;
  EXPECT_TRUE(sat::CubeSplitter().Split(empty).empty());

  Solver fixed;
  const Var x = fixed.NewVar();
  ASSERT_TRUE(fixed.AddClause({Pos(x)}));
  EXPECT_TRUE(sat::CubeSplitter().Split(fixed).empty());
}

// --- solver cloning ----------------------------------------------------------

TEST(SolverCloneTest, CloneSharesNoStateWithTheOriginal) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);

  const auto clone = solver.Clone(Solver::Options{});
  // The second unit contradicts (x | y) under the first; AddClause may
  // detect that eagerly (returning false), and Solve must report kUnsat.
  clone->AddClause({NegL(x)});
  clone->AddClause({NegL(y)});
  EXPECT_EQ(clone->Solve(), SolveResult::kUnsat);
  // The original never sees the clone's clauses.
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverCloneTest, ClonePreservesProblemAndLearntClauses) {
  Solver solver;
  AddPigeonhole(solver, 7);
  // A budgeted solve leaves learnt clauses and activity behind.
  EXPECT_EQ(solver.Solve({}, sat::SolveLimits{.max_conflicts = 100}),
            SolveResult::kUnknown);
  EXPECT_GT(solver.num_learnts(), 0u);

  const auto clone = solver.Clone(Solver::Options{});
  EXPECT_EQ(clone->num_vars(), solver.num_vars());
  EXPECT_EQ(clone->num_clauses(), solver.num_clauses());
  EXPECT_EQ(clone->num_learnts(), solver.num_learnts());
  // Both finish the proof; the learnts are logically implied, so carrying
  // them over is sound.
  EXPECT_EQ(clone->Solve(), SolveResult::kUnsat);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverCloneTest, CloneAgreesWithOriginalUnderCubeAssumptions) {
  Solver solver;
  AddPigeonhole(solver, 5);
  EXPECT_EQ(solver.Solve({}, sat::SolveLimits{.max_conflicts = 20}),
            SolveResult::kUnknown);

  const auto cubes = sat::CubeSplitter({.num_split_vars = 2}).Split(solver);
  ASSERT_EQ(cubes.size(), 4u);
  for (const auto& cube : cubes) {
    const auto clone = solver.Clone(Solver::Options{});
    // The instance is UNSAT, so every cube must be refuted — on the clone
    // and on the original alike.
    EXPECT_EQ(clone->Solve(cube), SolveResult::kUnsat);
    EXPECT_EQ(solver.Solve(cube), SolveResult::kUnsat);
  }
}

// --- BMC escalation policy ---------------------------------------------------

core::AcceleratorBuilder MemCtrlBuilder(
    accel::MemCtrlBug bug = accel::MemCtrlBug::kNone) {
  return [bug](ir::TransitionSystem& ts) {
    return accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo, bug).acc;
  };
}

// FC-only study options on the FIFO configuration — deep enough to reach
// the catalog's FC counterexamples, with per-depth refutations that
// accumulate real conflicts along the way.
core::AqedOptions MemCtrlFcOptions() {
  core::AqedOptions options;
  options.bmc.max_bound = 14;
  return options;
}

bmc::BmcOptions::CubeEscalation EagerCubes(uint32_t jobs) {
  bmc::BmcOptions::CubeEscalation cube;
  // Escalate almost immediately so even this small workload exercises the
  // fan-out on many depths.
  cube.conflict_threshold = 1;
  cube.num_split_vars = 2;
  cube.jobs = jobs;
  return cube;
}

TEST(BmcCubeTest, CubeVerdictMatchesMonolithicOnABuggyDesign) {
  const auto build = MemCtrlBuilder(accel::MemCtrlBug::kFifoPtrNoWrap);
  const core::SessionResult mono =
      core::CheckAccelerator(build, MemCtrlFcOptions());

  const auto options = core::AqedOptions::Builder(MemCtrlFcOptions())
                           .WithCubes(EagerCubes(/*jobs=*/1))
                           .Build();
  const core::SessionResult cubed = core::CheckAccelerator(build, options);

  ASSERT_TRUE(mono.bug_found());
  ASSERT_TRUE(cubed.bug_found());
  EXPECT_EQ(cubed.kind(), mono.kind());
  EXPECT_EQ(cubed.cex_cycles(), mono.cex_cycles());
  EXPECT_TRUE(cubed.aqed().bmc.trace_validated);
  // The escalation actually fired (threshold 1 guarantees it on this
  // workload) and solved real cubes.
  EXPECT_GT(cubed.aqed().bmc.cube_escalations, 0u);
  EXPECT_GT(cubed.aqed().bmc.cubes_solved, 0u);
}

TEST(BmcCubeTest, CubeVerdictMatchesMonolithicOnACleanDesign) {
  // Bound 8 as in memctrl_test's clean-design check: a genuine full
  // refutation with no budget. FC ties the FIFO's data lanes (DESIGN.md §6
  // item 9), so this bound costs about 1.5k conflicts and bound 14 about
  // 124k; the eager cubes still escalate.
  auto fc = MemCtrlFcOptions();
  fc.bmc.max_bound = 8;
  const auto build = MemCtrlBuilder();
  const core::SessionResult mono = core::CheckAccelerator(build, fc);

  const auto options = core::AqedOptions::Builder(fc)
                           .WithCubes(EagerCubes(/*jobs=*/2))
                           .Build();
  const core::SessionResult cubed = core::CheckAccelerator(build, options);

  EXPECT_FALSE(mono.bug_found());
  EXPECT_FALSE(cubed.bug_found());
  // Clean means every escalated depth was refuted by *all* of its cubes:
  // a single kUnknown cube would have left the refutation incomplete.
  EXPECT_EQ(cubed.aqed().bmc.outcome, bmc::BmcResult::Outcome::kBoundReached);
  EXPECT_TRUE(cubed.aqed().bmc.refutation_complete);
  EXPECT_GT(cubed.aqed().bmc.cube_escalations, 0u);
}

TEST(BmcCubeTest, FixedSeedReproducesTheRun) {
  const auto build = MemCtrlBuilder(accel::MemCtrlBug::kFifoPtrNoWrap);
  auto cube = EagerCubes(/*jobs=*/1);  // sequential: bit-for-bit repeatable
  cube.seed = 7;
  const auto options =
      core::AqedOptions::Builder(MemCtrlFcOptions()).WithCubes(cube).Build();

  const core::SessionResult first = core::CheckAccelerator(build, options);
  const core::SessionResult second = core::CheckAccelerator(build, options);
  ASSERT_TRUE(first.bug_found());
  ASSERT_TRUE(second.bug_found());
  EXPECT_EQ(first.kind(), second.kind());
  EXPECT_EQ(first.cex_cycles(), second.cex_cycles());
  EXPECT_EQ(first.aqed().bmc.cube_escalations,
            second.aqed().bmc.cube_escalations);
  EXPECT_EQ(first.aqed().bmc.cubes_solved, second.aqed().bmc.cubes_solved);
  EXPECT_EQ(first.conflicts(), second.conflicts());
}

// Concurrent cube workers racing to the first SAT cube, with reason-carrying
// cancellation of the siblings — the data-race surface the tsan preset
// exercises. The verdict must not depend on who wins the race.
TEST(BmcCubeTest, SiblingCancellationUnderConcurrentWorkers) {
  const auto build = MemCtrlBuilder(accel::MemCtrlBug::kFifoPtrNoWrap);
  const core::SessionResult mono =
      core::CheckAccelerator(build, MemCtrlFcOptions());
  ASSERT_TRUE(mono.bug_found());

  auto cube = EagerCubes(/*jobs=*/4);
  cube.num_split_vars = 3;  // 8 cubes racing on 4 workers
  const auto options =
      core::AqedOptions::Builder(MemCtrlFcOptions()).WithCubes(cube).Build();
  for (int run = 0; run < 3; ++run) {
    const core::SessionResult cubed = core::CheckAccelerator(build, options);
    ASSERT_TRUE(cubed.bug_found()) << run;
    // BMC deepens one frame at a time, so the counterexample depth — and
    // with it the trace length — is race-free even though the winning cube
    // is not.
    EXPECT_EQ(cubed.cex_cycles(), mono.cex_cycles()) << run;
    EXPECT_TRUE(cubed.aqed().bmc.trace_validated) << run;
  }
}

// A clean accelerator with two arithmetic paths for one function:
// alternate transactions compute x*5 and (x<<2)+x. FC holds, but the
// data-path abstraction gives the two paths unrelated functions, so its
// first models are spurious until refinement concretizes them.
core::AcceleratorInterface BuildTwoPathScaler(ir::TransitionSystem& ts) {
  using ir::NodeRef;
  using ir::Sort;
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  const NodeRef full = ts.AddState("full", Sort::BitVec(1), 0);
  const NodeRef out = ts.AddState("out", Sort::BitVec(8), 0);
  const NodeRef shift_add_path =
      ts.AddState("shift_add_path", Sort::BitVec(1), 0);
  const NodeRef in_ready = ctx.Not(full);
  const NodeRef capture = ctx.And(in_valid, in_ready);
  const NodeRef drain = ctx.And(full, host_ready);
  const NodeRef product = ctx.Mul(in_data, ctx.Const(8, 5));
  const NodeRef shift_add =
      ctx.Add(ctx.Shl(in_data, ctx.Const(8, 2)), in_data);
  ts.SetNext(out, ctx.Ite(capture,
                          ctx.Ite(shift_add_path, shift_add, product), out));
  ts.SetNext(full, ctx.Ite(capture, ctx.True(),
                           ctx.Ite(drain, ctx.False(), full)));
  ts.SetNext(shift_add_path,
             ctx.Ite(capture, ctx.Not(shift_add_path), shift_add_path));
  core::AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = full;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{out}};
  return acc;
}

// Cube clones carry no model check, so at an escalated depth a cube can
// return a spurious model of the abstraction. RunBmc refines on the main
// solver and solves the depth again; a spurious model never wins a depth
// or cancels its siblings, so every cube runs and the conflicts do not
// depend on the worker count.
TEST(BmcCubeTest, SpuriousCloneModelsAreRefinedAndDeterministic) {
  core::AqedOptions fc;
  fc.bmc.max_bound = 8;
  const core::SessionResult mono =
      core::CheckAccelerator(BuildTwoPathScaler, fc);
  ASSERT_FALSE(mono.bug_found());
  EXPECT_GE(mono.aqed().bmc.refinements, 1u);

  std::vector<uint64_t> conflicts;
  for (uint32_t jobs : {1u, 4u}) {
    auto cube = EagerCubes(jobs);
    cube.num_split_vars = 3;
    const auto options =
        core::AqedOptions::Builder(fc).WithCubes(cube).Build();
    const core::SessionResult cubed =
        core::CheckAccelerator(BuildTwoPathScaler, options);
    EXPECT_FALSE(cubed.bug_found()) << jobs;
    EXPECT_EQ(cubed.cex_cycles(), mono.cex_cycles()) << jobs;
    EXPECT_EQ(cubed.aqed().bmc.outcome,
              bmc::BmcResult::Outcome::kBoundReached);
    EXPECT_GT(cubed.aqed().bmc.cube_escalations, 0u);
    EXPECT_GE(cubed.aqed().bmc.refinements, 1u);
    conflicts.push_back(cubed.conflicts());
  }
  EXPECT_EQ(conflicts[0], conflicts[1]);
}

TEST(BmcCubeTest, CubeSolvedReasonIsDistinguishable) {
  // The new cancel reason must survive the reason/name plumbing: siblings
  // cancelled by a winning cube report kCubeSolved, not a generic cancel.
  sched::CancellationSource source;
  source.Cancel(sched::CancelReason::kCubeSolved);
  EXPECT_EQ(source.reason(), sched::CancelReason::kCubeSolved);
  EXPECT_STREQ(ToString(source.reason()), "cube-solved");
  EXPECT_EQ(sched::UnknownReasonFromCancel(source.reason()),
            UnknownReason::kCancelled);
}

TEST(BmcCubeDeathTest, ConflictingCancellationTokensAreRejected) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const ir::NodeRef counter = ts.AddState("counter", ir::Sort::BitVec(4), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(4, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(4, 9)), "deep");

  sched::CancellationSource a, b;
  bmc::BmcOptions options;
  options.max_bound = 4;
  options.cancel = a.token();
  options.solver_options.cancel = b.token();  // a *different* source: bug
  EXPECT_DEATH(bmc::RunBmc(ts, options), "arm only the top-level token");

  // The same token on both knobs is fine — that is the one-token contract.
  options.solver_options.cancel = options.cancel;
  const bmc::BmcResult result = bmc::RunBmc(ts, options);
  EXPECT_EQ(result.outcome, bmc::BmcResult::Outcome::kBoundReached);
}

// --- session integration -----------------------------------------------------

TEST(CubeSessionTest, EnqueueReturnsATypedHandle) {
  sched::VerificationSession session;
  core::AqedOptions options;
  options.bmc.max_bound = 3;
  const core::JobHandle handle =
      session.Enqueue(MemCtrlBuilder(), options, "fifo/clean");
  EXPECT_EQ(handle.index(), 0u);
  EXPECT_EQ(handle.label(), "fifo/clean");
  const core::SessionResult result = session.Wait();
  // Handle-taking accessors agree with the index-taking ones.
  EXPECT_EQ(result.bug_found(handle), result.bug_found(handle.index()));
  EXPECT_EQ(result.kind(handle), result.kind(handle.index()));
  EXPECT_EQ(result.conflicts(handle), result.conflicts(handle.index()));
  EXPECT_FALSE(result.bug_found(handle));
}

TEST(CubeSessionTest, SessionJobRunsWithCubeEscalation) {
  // The full stack: a session job whose BMC escalates into cubes. jobs = 0
  // makes the engine inherit the session's worker count.
  auto cube = EagerCubes(/*jobs=*/0);
  const auto options =
      core::AqedOptions::Builder(MemCtrlFcOptions()).WithCubes(cube).Build();
  core::SessionOptions session_options;
  session_options.jobs = 2;
  sched::VerificationSession session(session_options);
  const core::JobHandle handle =
      session.Enqueue(MemCtrlBuilder(accel::MemCtrlBug::kFifoPtrNoWrap),
                      options, "fifo/ptr_no_wrap");
  const core::SessionResult result = session.Wait();
  ASSERT_TRUE(result.bug_found(handle));
  EXPECT_GT(result.aqed(handle).bmc.cube_escalations, 0u);
  EXPECT_TRUE(result.aqed(handle).bmc.trace_validated);
}

TEST(CubeSessionTest, BuilderRejectsIncoherentCubeOptions) {
  bmc::BmcOptions::CubeEscalation cube;
  cube.conflict_threshold = 0;
  core::AqedOptions options;
  options.bmc.cube = cube;
  options.bmc.cube.enabled = true;
  EXPECT_FALSE(options.Validate().ok());
  options.bmc.cube.conflict_threshold = 100;
  options.bmc.cube.num_split_vars = 17;
  EXPECT_FALSE(options.Validate().ok());
  options.bmc.cube.num_split_vars = 3;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace aqed
