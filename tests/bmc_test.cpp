// BMC engine tests: reachability depth exactness, constraints, multiple bad
// predicates, trace extraction and replay, uninitialized (symbolic) state,
// arrays, conflict budgets, pins on the solver's work, and the data-path
// abstraction of FC systems.
#include <gtest/gtest.h>

#include "accel/aes.h"
#include "accel/dataflow.h"
#include "accel/memctrl.h"
#include "aqed/fc_instrument.h"
#include "aqed/sac_instrument.h"
#include "bmc/engine.h"
#include "bmc/unroller.h"
#include "ir/transition_system.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::bmc {
namespace {

using ir::NodeRef;
using ir::Sort;

// Counter that reaches `target` after exactly `target` steps.
ir::TransitionSystem MakeCounter(uint64_t target, uint32_t width) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(width), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(width, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(width, target)), "reaches_target");
  return ts;
}

TEST(BmcTest, FindsCounterTargetAtExactDepth) {
  for (uint64_t target : {0ull, 1ull, 5ull, 12ull}) {
    auto ts = MakeCounter(target, 5);
    BmcOptions options;
    options.max_bound = 20;
    const BmcResult result = RunBmc(ts, options);
    ASSERT_TRUE(result.found_bug()) << target;
    // Minimal-length witness: trace length == target+1 cycles.
    EXPECT_EQ(result.trace.length(), target + 1) << target;
    EXPECT_TRUE(result.trace_validated);
  }
}

TEST(BmcTest, InputDrivenBadInInitialFrameHasOneCycleTrace) {
  // Depth-0 counterexample through an *input* valuation (not just initial
  // state): the reported trace covers 1 cycle, never 0.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("in", Sort::BitVec(4));
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(4), 0);
  ts.SetNext(reg, in);
  ts.AddBad(ctx.Eq(in, ctx.Const(4, 9)), "in9");
  BmcOptions options;
  options.max_bound = 4;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 1u);
  EXPECT_TRUE(result.trace_validated);
}

TEST(BmcTest, UnreachableWithinBound) {
  auto ts = MakeCounter(30, 5);
  BmcOptions options;
  options.max_bound = 10;
  const BmcResult result = RunBmc(ts, options);
  EXPECT_FALSE(result.found_bug());
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(result.frames_explored, 10u);
}

TEST(BmcTest, ConstraintsBlockCounterexamples) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("in", Sort::BitVec(4));
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(4), 0);
  ts.SetNext(reg, in);
  // reg == 9 is reachable only through in == 9, which is forbidden.
  ts.AddConstraint(ctx.Ne(in, ctx.Const(4, 9)));
  ts.AddBad(ctx.Eq(reg, ctx.Const(4, 9)), "reg9");
  BmcOptions options;
  options.max_bound = 6;
  EXPECT_FALSE(RunBmc(ts, options).found_bug());
}

TEST(BmcTest, ReportsTheReachableBadAmongMany) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(4), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(4, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(4, 12)), "deep");
  const uint32_t shallow =
      ts.AddBad(ctx.Eq(counter, ctx.Const(4, 3)), "shallow");
  BmcOptions options;
  options.max_bound = 16;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.bad_index, shallow);
  EXPECT_EQ(result.trace.bad_label, "shallow");
  EXPECT_EQ(result.trace.length(), 4u);
}

TEST(BmcTest, BadFilterRestrictsTargets) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(4), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(4, 1)));
  const uint32_t deep = ts.AddBad(ctx.Eq(counter, ctx.Const(4, 9)), "deep");
  ts.AddBad(ctx.Eq(counter, ctx.Const(4, 2)), "shallow");
  BmcOptions options;
  options.max_bound = 16;
  options.bad_filter = {deep};
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.bad_label, "deep");
  EXPECT_EQ(result.trace.length(), 10u);
}

TEST(BmcTest, SymbolicInitialStateIsSearched) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(8));  // no init
  ts.SetNext(reg, reg);
  ts.AddBad(ctx.Eq(reg, ctx.Const(8, 0xA7)), "magic");
  BmcOptions options;
  options.max_bound = 2;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 1u);
  EXPECT_EQ(result.trace.initial_states.at(reg), 0xA7u);
  EXPECT_TRUE(result.trace_validated);
}

TEST(BmcTest, InputSequenceRecoveredInTrace) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("in", Sort::BitVec(4));
  const NodeRef acc = ts.AddState("acc", Sort::BitVec(4), 0);
  ts.SetNext(acc, ctx.Add(acc, in));
  ts.AddBad(ctx.Eq(acc, ctx.Const(4, 11)), "sum11");
  BmcOptions options;
  options.max_bound = 8;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  // Inputs across the trace (before the last frame) must sum to 11 mod 16.
  uint64_t sum = 0;
  for (uint32_t t = 0; t + 1 < result.trace.length(); ++t) {
    sum += result.trace.inputs[t].at(in);
  }
  EXPECT_EQ(sum % 16, 11u);
}

TEST(BmcTest, ArrayMemoryReachability) {
  // Write-then-read through a memory: bad when readback of a chosen slot
  // equals a magic value that must first be written there.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef mem = ts.AddState("mem", Sort::Array(2, 8), 0);
  const NodeRef addr = ts.AddInput("addr", Sort::BitVec(2));
  const NodeRef data = ts.AddInput("data", Sort::BitVec(8));
  ts.SetNext(mem, ctx.Write(mem, addr, data));
  const NodeRef probe = ctx.Read(mem, ctx.Const(2, 3));
  ts.AddBad(ctx.Eq(probe, ctx.Const(8, 0x5A)), "slot3_magic");
  BmcOptions options;
  options.max_bound = 4;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 2u);  // one write + one observe cycle
  EXPECT_TRUE(result.trace_validated);
}

TEST(BmcTest, ConflictBudgetSkipsDepthsButStaysSound) {
  auto ts = MakeCounter(6, 5);
  BmcOptions options;
  options.max_bound = 10;
  options.conflict_budget = 1;  // tiny; refutations may be skipped
  const BmcResult result = RunBmc(ts, options);
  // The counterexample query is trivial (propagation only), so the bug is
  // still found and still minimal.
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 7u);
}

// The incremental solve path reports a minimal, replay-validated
// counterexample.
TEST(BmcTest, PreprocessingModeAgrees) {
  auto ts = MakeCounter(9, 5);
  BmcOptions options;
  options.max_bound = 16;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 10u);
  EXPECT_TRUE(result.trace_validated);
}

TEST(TraceTest, ReplayRejectsTamperedTrace) {
  auto ts = MakeCounter(4, 5);
  BmcOptions options;
  options.max_bound = 8;
  BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_TRUE(ReplayTrace(ts, result.trace));
  // Truncating the trace makes the bad unreachable at the final cycle.
  Trace truncated = result.trace;
  truncated.inputs.pop_back();
  EXPECT_FALSE(ReplayTrace(ts, truncated));
  Trace empty = result.trace;
  empty.inputs.clear();
  EXPECT_FALSE(ReplayTrace(ts, empty));
}

TEST(TraceTest, FormatContainsInputsAndOutputs) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("stimulus", Sort::BitVec(4));
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(4), 0);
  ts.SetNext(reg, in);
  ts.AddBad(ctx.Eq(reg, ctx.Const(4, 3)), "reg3");
  ts.AddOutput("observed", reg);
  BmcOptions options;
  options.max_bound = 4;
  const BmcResult result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  const std::string text = FormatTrace(ts, result.trace);
  EXPECT_NE(text.find("stimulus="), std::string::npos);
  EXPECT_NE(text.find("observed="), std::string::npos);
  EXPECT_NE(text.find("reg3"), std::string::npos);
}

// The solver's work on clean FC at `bound`, searching for the early-output
// bad as well when `early_output` is set, with the DataPathHint's tied
// inputs cleared when `untie` is set.
struct FcWork {
  BmcResult result;
  uint64_t propagations = 0;
};
FcWork CleanFcWork(ir::TransitionSystem& ts,
                   const core::AcceleratorInterface& acc, uint32_t bound,
                   bool early_output, bool untie = false) {
  const core::FcInstrumentation fc = core::InstrumentFc(ts, acc);
  if (untie) {
    ir::TransitionSystem::DataPathHint hint = ts.data_path_hint();
    hint.tied_inputs.clear();
    ts.SetDataPathHint(std::move(hint));
  }
  BmcOptions options;
  options.max_bound = bound;
  options.bad_filter = {fc.fc_bad_index};
  if (early_output) options.bad_filter.push_back(fc.early_output_bad_index);
  const telemetry::Counter& propagations =
      telemetry::MetricsRegistry::Global().counter("sat.propagations");
  const uint64_t propagations_before = propagations.value();
  telemetry::SetEnabled(true);
  FcWork work{RunBmc(ts, options), 0};
  telemetry::SetEnabled(false);
  work.propagations = propagations.value() - propagations_before;
  return work;
}

// Pins the solver's work on the clean FIFO FC refutation, whose data lanes
// FC ties (DESIGN.md §6 item 9). Any change to the search or to the tie
// moves these counts; arena compaction must not.
TEST(BmcTest, CleanFifoFcWorkIsPinned) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo);
  const FcWork work = CleanFcWork(ts, design.acc, 8, false);
  ASSERT_EQ(ts.data_path_hint().tied_inputs.size(), 1u);
  EXPECT_EQ(work.result.outcome, BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(work.result.conflicts, 1555u);
  EXPECT_EQ(work.result.decisions, 1992u);
#if AQED_TELEMETRY_ENABLED
  EXPECT_EQ(work.propagations, 328902u);
#endif
}

// Queries the tie leaves alone, pinned at the values recorded before it
// existed. With its lanes free the FIFO refutation is long enough that
// ReduceDB runs eight times across its depths (depth 8 alone takes about
// 15k conflicts); clean AES FC at signoff's bound fails the tie's check
// (its S-box turns data into mux selects) and runs ReduceDB three times.
TEST(BmcTest, UntiedFcWorkIsPinned) {
  {
    ir::TransitionSystem ts;
    const auto design = accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo);
    const FcWork work = CleanFcWork(ts, design.acc, 8, false, /*untie=*/true);
    EXPECT_EQ(work.result.outcome, BmcResult::Outcome::kBoundReached);
    EXPECT_EQ(work.result.conflicts, 19494u);
    EXPECT_EQ(work.result.decisions, 104788u);
#if AQED_TELEMETRY_ENABLED
    EXPECT_EQ(work.propagations, 5189248u);
#endif
  }
  {
    ir::TransitionSystem ts;
    const auto design = accel::BuildAes(ts, {.rounds = 1});
    const FcWork work = CleanFcWork(ts, design.acc, 7, true);
    EXPECT_TRUE(ts.data_path_hint().tied_inputs.empty());
    EXPECT_EQ(work.result.outcome, BmcResult::Outcome::kBoundReached);
    EXPECT_EQ(work.result.conflicts, 16617u);
    EXPECT_EQ(work.result.decisions, 29861u);
#if AQED_TELEMETRY_ENABLED
    EXPECT_EQ(work.propagations, 3024691u);
#endif
  }
}

// The satisfiable side of the same pin: a catalog bug that BMC finds in
// well under a second. Its trace is read from the solver's model and
// replayed on the simulator.
TEST(BmcTest, FifoPtrNoWrapBugWorkIsPinned) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo,
                                          accel::MemCtrlBug::kFifoPtrNoWrap);
  const core::FcInstrumentation fc = core::InstrumentFc(ts, design.acc);
  BmcOptions options;
  options.max_bound = 14;
  options.bad_filter = {fc.fc_bad_index};
  const BmcResult result = RunBmc(ts, options);
  ASSERT_EQ(result.outcome, BmcResult::Outcome::kCounterexample);
  EXPECT_TRUE(result.trace_validated);
  EXPECT_EQ(result.trace.length(), 8u);
  EXPECT_EQ(result.conflicts, 823u);
  EXPECT_EQ(result.decisions, 1144u);
}

// FC on the FIFO at `bound`, from a freshly built system.
BmcResult FifoFcRun(accel::MemCtrlBug bug, uint32_t bound, bool prove) {
  ir::TransitionSystem ts;
  const auto design =
      accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo, bug);
  const core::FcInstrumentation fc = core::InstrumentFc(ts, design.acc);
  BmcOptions options;
  options.max_bound = bound;
  options.bad_filter = {fc.fc_bad_index};
  options.prove = prove;
  return RunBmc(ts, options);
}

// A proof request shares the bounded run's base case instead of running a
// second one. FC on the FIFO is not inductive within these bounds, so both
// runs below are the bounded job, with the pinned work of the two tests
// above.
TEST(BmcTest, ProofRequestRunsTheBaseCaseOnce) {
  const BmcResult bounded = FifoFcRun(accel::MemCtrlBug::kNone, 8, false);
  const BmcResult proving = FifoFcRun(accel::MemCtrlBug::kNone, 8, true);
  EXPECT_EQ(proving.outcome, BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(proving.outcome, bounded.outcome);
  EXPECT_EQ(proving.frames_explored, bounded.frames_explored);
  EXPECT_EQ(proving.conflicts, 1555u);
  EXPECT_EQ(proving.conflicts, bounded.conflicts);
  EXPECT_EQ(proving.decisions, bounded.decisions);

  const BmcResult bug =
      FifoFcRun(accel::MemCtrlBug::kFifoPtrNoWrap, 14, false);
  const BmcResult bug_proving =
      FifoFcRun(accel::MemCtrlBug::kFifoPtrNoWrap, 14, true);
  ASSERT_EQ(bug_proving.outcome, BmcResult::Outcome::kCounterexample);
  EXPECT_TRUE(bug_proving.trace_validated);
  EXPECT_EQ(bug_proving.trace.length(), 8u);
  EXPECT_EQ(bug_proving.trace.inputs, bug.trace.inputs);
  EXPECT_EQ(bug_proving.trace.initial_states, bug.trace.initial_states);
  EXPECT_EQ(bug_proving.conflicts, 823u);
  EXPECT_EQ(bug_proving.conflicts, bug.conflicts);
}

// The data path an Unroller abstracts for `ts`.
std::vector<NodeRef> AbstractedNodes(const ir::TransitionSystem& ts) {
  sat::Solver solver;
  bitblast::GateBuilder gates(solver);
  bitblast::BitBlaster blaster(gates);
  const Unroller unroller(ts, blaster);
  return unroller.abstracted_nodes();
}

// Clean dataflow FC at signoff's bound: its x*3 and +7 stages are abstract,
// and the refutation needs no refinement (the abstraction is refuted as it
// stands). The concrete encoding needed 48,338 conflicts here.
TEST(DataPathAbstractionTest, CleanDataflowFcWorkIsPinned) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildDataflow(ts, {});
  const core::FcInstrumentation fc = core::InstrumentFc(ts, design.acc);
  EXPECT_EQ(AbstractedNodes(ts).size(), 2u);
  BmcOptions options;
  options.max_bound = 10;
  options.bad_filter = {fc.fc_bad_index};
  if (fc.has_early_output_bad) {
    options.bad_filter.push_back(fc.early_output_bad_index);
  }
  const BmcResult result = RunBmc(ts, options);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(result.refinements, 0u);
  EXPECT_EQ(result.conflicts, 8314u);
}

// Without the FC hint nothing is abstract: the same design's RB system, and
// any system that never went through InstrumentFc, unroll as before.
TEST(DataPathAbstractionTest, SystemsWithoutTheHintStayConcrete) {
  ir::TransitionSystem ts;
  accel::BuildDataflow(ts, {});
  EXPECT_TRUE(AbstractedNodes(ts).empty());
  EXPECT_TRUE(AbstractedNodes(MakeCounter(5, 4)).empty());
}

// SAC checks the outputs' values, so a system that carries both monitors
// keeps its data path concrete.
TEST(DataPathAbstractionTest, SacOnTheSameSystemKeepsItConcrete) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildDataflow(ts, {});
  core::InstrumentFc(ts, design.acc);
  ASSERT_FALSE(AbstractedNodes(ts).empty());
  core::InstrumentSac(ts, design.acc, accel::DataflowSpec());
  EXPECT_TRUE(AbstractedNodes(ts).empty());
}

// A spurious model of the abstraction is refined inside the solve, so the
// counterexample RunBmc reports is concrete: a bug whose real witness is
// deep still gets its exact depth.
TEST(DataPathAbstractionTest, SpuriousModelsAreRefinedInsideTheSolve) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  // acc += in every cycle; the bad needs acc to reach exactly 12 after the
  // input stays 3, which the abstract adder could claim at any depth.
  const NodeRef in = ts.AddInput("in", Sort::BitVec(8));
  const NodeRef acc = ts.AddState("acc", Sort::BitVec(8), 0);
  const NodeRef sum = ctx.Add(acc, in);
  ts.SetNext(acc, sum);
  ts.AddConstraint(ctx.Eq(in, ctx.Const(8, 3)));
  ts.AddBad(ctx.Eq(acc, ctx.Const(8, 12)), "acc_is_12");
  ts.SetDataPathHint(
      {.data_roots = {acc}, .control_roots = {}, .tied_inputs = {}});
  ASSERT_EQ(AbstractedNodes(ts), std::vector<NodeRef>{sum});

  BmcOptions options;
  options.max_bound = 8;
  const telemetry::Counter& refinements =
      telemetry::MetricsRegistry::Global().counter("bmc.refinements");
  const uint64_t refinements_before = refinements.value();
  telemetry::SetEnabled(true);
  const BmcResult result = RunBmc(ts, options);
  telemetry::SetEnabled(false);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 5u);
  EXPECT_TRUE(result.trace_validated);
  EXPECT_GE(result.refinements, 1u);
#if AQED_TELEMETRY_ENABLED
  EXPECT_EQ(refinements.value() - refinements_before, result.refinements);
#endif
}

}  // namespace
}  // namespace aqed::bmc
