// k-induction tests, through RunBmc with BmcOptions::prove: 1-inductive and
// strictly-2-inductive proofs, counterexamples as plain BMC finds them, a
// case that *requires* the simple-path constraints to converge, and how
// budgets and cancellation end a run that asked for a proof.
#include <gtest/gtest.h>

#include "accel/dataflow.h"
#include "aqed/rb_instrument.h"
#include "bmc/engine.h"
#include "sched/cancellation.h"
#include "support/failpoint.h"

namespace aqed::bmc {
namespace {

using ir::NodeRef;
using ir::Sort;

// A proof request over up to 16 frames.
BmcOptions ProofOptions() {
  BmcOptions options;
  options.max_bound = 16;
  options.prove = true;
  return options;
}

BmcResult Prove(const ir::TransitionSystem& ts) {
  return RunBmc(ts, ProofOptions());
}

TEST(KInductionTest, SaturatingCounterBoundProvedAtK1) {
  // counter' = counter < 100 ? counter+1 : counter; prove counter <= 100.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(8), 0);
  ts.SetNext(counter,
             ctx.Ite(ctx.Ult(counter, ctx.Const(8, 100)),
                     ctx.Add(counter, ctx.Const(8, 1)), counter));
  ts.AddBad(ctx.Ugt(counter, ctx.Const(8, 100)), "counter_over_100");

  const auto result = Prove(ts);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved);
  EXPECT_EQ(result.frames_explored, 1u);
}

TEST(KInductionTest, ReachableBadReportedAsCounterexample) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(8), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(8, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(8, 6)), "hits6");

  const auto result = Prove(ts);
  ASSERT_EQ(result.outcome, BmcResult::Outcome::kCounterexample);
  EXPECT_EQ(result.trace.length(), 7u);  // same minimal witness as BMC
  EXPECT_TRUE(result.trace_validated);
}

// A 1-bit toggle whose bad state (x == 1) is reachable at depth 1.
ir::TransitionSystem MakeToggleSystem() {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef x = ts.AddState("x", Sort::BitVec(1), 0);
  ts.SetNext(x, ctx.Not(x));
  ts.AddBad(ctx.Eq(x, ctx.Const(1, 1)), "x_is_1");
  return ts;
}

// A base case the solver could not decide must not count as passed: the
// run is inconclusive, neither a proof nor (with a reachable bad) a crash.
TEST(KInductionTest, UndecidedBaseCaseEndsUnknown) {
  const auto ts = MakeToggleSystem();
  sched::CancellationSource source;
  source.Cancel();
  BmcOptions options = ProofOptions();
  options.cancel = source.token();
  const auto result = RunBmc(ts, options);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kUnknown);
}

// A query the solver must search: no 8-bit a, b > 1 multiply to the prime
// 251, which takes many conflicts to refute. Stateless, base(1) refutes it
// (and step(1) holds without a solve: no two frames differ). Gated by a
// state bit that starts at 0 and never changes, beside a counter that
// keeps the frames distinct, base(1) is constant false and step(1) must
// refute it.
ir::TransitionSystem MakeFactoringSystem(bool gated) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef a = ts.AddInput("a", Sort::BitVec(8));
  const NodeRef b = ts.AddInput("b", Sort::BitVec(8));
  const NodeRef one = ctx.Const(8, 1);
  NodeRef bad = ctx.And(ctx.Eq(ctx.Mul(ctx.Zext(a, 16), ctx.Zext(b, 16)),
                               ctx.Const(16, 251)),
                        ctx.And(ctx.Ugt(a, one), ctx.Ugt(b, one)));
  if (gated) {
    const NodeRef gate = ts.AddState("gate", Sort::BitVec(1), 0);
    ts.SetNext(gate, gate);
    const NodeRef count = ts.AddState("count", Sort::BitVec(8), 0);
    ts.SetNext(count, ctx.Add(count, ctx.Const(8, 1)));
    bad = ctx.And(gate, bad);
  }
  ts.AddBad(bad, "factors_251");
  return ts;
}

TEST(KInductionTest, UnlimitedBudgetProvesTheFactoringQuery) {
  for (const bool gated : {false, true}) {
    const auto result = Prove(MakeFactoringSystem(gated));
    EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved) << gated;
    EXPECT_EQ(result.frames_explored, 1u) << gated;
    EXPECT_EQ(result.unknown_reason, UnknownReason::kNone) << gated;
  }
}

// Budget 1 stops the base solve of every depth (stateless): no depth is
// refuted, so the run ends kUnknown. Gated, it stops step(1) instead: the
// run stops proving and goes on as a bounded one, whose depths are all
// refuted without a solve — bounded, not proved.
TEST(KInductionTest, ConflictBudgetEndsUnknownWithBudgetReason) {
  BmcOptions options = ProofOptions();
  options.conflict_budget = 1;
  const auto stateless = RunBmc(MakeFactoringSystem(false), options);
  EXPECT_EQ(stateless.outcome, BmcResult::Outcome::kUnknown);
  EXPECT_EQ(stateless.unknown_reason, UnknownReason::kConflictBudget);

  const auto gated = RunBmc(MakeFactoringSystem(true), options);
  EXPECT_EQ(gated.outcome, BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(gated.frames_explored, options.max_bound);
  EXPECT_EQ(gated.unknown_reason, UnknownReason::kNone);
}

TEST(KInductionTest, PreCancelledRunEndsUnknownWithCancelReason) {
  sched::CancellationSource source;
  source.Cancel(sched::CancelReason::kDeadline);
  BmcOptions options = ProofOptions();
  options.cancel = source.token();
  for (const bool gated : {false, true}) {
    const auto result = RunBmc(MakeFactoringSystem(gated), options);
    EXPECT_EQ(result.outcome, BmcResult::Outcome::kUnknown) << gated;
    EXPECT_EQ(result.unknown_reason, UnknownReason::kDeadline) << gated;
  }
}

#if AQED_FAILPOINTS_ENABLED
// A counterexample that fails simulator replay is reported as such (a
// checker error for the caller), not an abort.
TEST(KInductionTest, FailedReplayIsReportedNotFatal) {
  const auto ts = MakeToggleSystem();
  support::failpoint::Arm(
      "bmc.replay", {support::FailpointAction::kReturnError, /*skip=*/0,
                     /*limit=*/0});
  const auto result = Prove(ts);
  support::failpoint::DisarmAll();
  ASSERT_EQ(result.outcome, BmcResult::Outcome::kCounterexample);
  EXPECT_FALSE(result.trace_validated);
  EXPECT_EQ(result.trace.length(), 2u);
}
#endif  // AQED_FAILPOINTS_ENABLED

// Transition structure 0->2->0 (reachable) and 1->3, 3->1 (unreachable);
// bad = (c == 3). Not 1-inductive (1 -> 3), but 2-inductive: the only
// predecessor of 3 is 1, whose only predecessor is 3 itself (~bad blocks it).
TEST(KInductionTest, StrictlyTwoInductiveProperty) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef c = ts.AddState("c", Sort::BitVec(2), 0);
  NodeRef next = ctx.Const(2, 2);                                // 0 -> 2
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 2)), ctx.Const(2, 0), next);
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 1)), ctx.Const(2, 3), next);
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 3)), ctx.Const(2, 1), next);
  ts.SetNext(c, next);
  ts.AddBad(ctx.Eq(c, ctx.Const(2, 3)), "c3");

  const auto result = Prove(ts);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved);
  EXPECT_EQ(result.frames_explored, 2u);
}

// Unreachable lasso 1 <-> 2 with an input-controlled exit to the bad state
// 3: without simple-path constraints k-induction never converges
// (arbitrarily long good paths inside the lasso); with them it does.
ir::TransitionSystem MakeLassoSystem() {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef c = ts.AddState("c", Sort::BitVec(2), 0);
  const NodeRef exit = ts.AddInput("exit", Sort::BitVec(1));
  NodeRef next = ctx.Const(2, 0);                                // 0 -> 0
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 1)), ctx.Const(2, 2), next);
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 2)),
                 ctx.Ite(exit, ctx.Const(2, 3), ctx.Const(2, 1)), next);
  next = ctx.Ite(ctx.Eq(c, ctx.Const(2, 3)), ctx.Const(2, 3), next);
  ts.SetNext(c, next);
  ts.AddBad(ctx.Eq(c, ctx.Const(2, 3)), "c3");
  return ts;
}

TEST(KInductionTest, SimplePathConstraintsNeededForLasso) {
  BmcOptions options = ProofOptions();
  options.max_bound = 8;
  const auto result = RunBmc(MakeLassoSystem(), options);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved);
  EXPECT_LE(result.frames_explored, 4u);
}

TEST(KInductionTest, ArrayStateParticipatesInSimplePath) {
  // A 2-entry memory cycles a token; bad = both entries zero. Reachable
  // states always hold exactly one token, and the property is provable.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef mem = ts.AddState("mem", Sort::Array(1, 1), 0);
  const NodeRef ptr = ts.AddState("ptr", Sort::BitVec(1), 0);
  // Write a 1 at ptr, clear the other slot by writing its complement flag.
  const NodeRef with_token = ctx.Write(
      ctx.Write(mem, ptr, ctx.Const(1, 0)),
      ctx.Not(ptr), ctx.Const(1, 1));
  ts.SetNext(mem, with_token);
  ts.SetNext(ptr, ctx.Not(ptr));
  const NodeRef none = ctx.And(
      ctx.Eq(ctx.Read(mem, ctx.Const(1, 0)), ctx.Const(1, 0)),
      ctx.Eq(ctx.Read(mem, ctx.Const(1, 1)), ctx.Const(1, 0)));
  // From reset (all zero) the very first frame is "no token": guard the
  // property with a warm-up flag.
  const NodeRef warmed = ts.AddState("warmed", Sort::BitVec(1), 0);
  ts.SetNext(warmed, ctx.True());
  ts.AddBad(ctx.And(warmed, none), "token_lost");

  const auto result = Prove(ts);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved);
}

// Unbounded proof of a real design invariant: the correct dataflow
// accelerator conserves credits — the credit pool plus the number of
// occupied pipeline stages is always exactly the initial pool size. (This
// is the auxiliary invariant behind its starvation freedom; the starvation
// *monitor* itself is not k-inductive without it, the classic reason
// IC3-style invariant generation exists.)
TEST(KInductionTest, ProvesDataflowCreditConservation) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildDataflow(ts, {});
  auto& ctx = ts.ctx();
  // Sum credits + s1_full + s2_full + s3_full over 3 bits.
  auto find_state = [&](const std::string& name) {
    for (ir::NodeRef state : ts.states()) {
      if (ts.ctx().node(state).name == name) return state;
    }
    ADD_FAILURE() << "state not found: " << name;
    return ir::kNullNode;
  };
  const NodeRef credits = find_state("df.credits");
  NodeRef sum = ctx.Zext(credits, 3);
  for (const char* name : {"df.s1_full", "df.s2_full", "df.s3_full"}) {
    sum = ctx.Add(sum, ctx.Zext(find_state(name), 3));
  }
  ts.AddBad(ctx.Ne(sum, ctx.Const(3, 2)), "credit_leak");

  const auto result = Prove(ts);
  EXPECT_EQ(result.outcome, BmcResult::Outcome::kProved)
      << "outcome " << static_cast<int>(result.outcome) << " at k "
      << result.frames_explored;
  EXPECT_EQ(result.frames_explored, 1u);  // conservation is 1-inductive

  // The buggy (credit-leaking) design genuinely violates it.
  ir::TransitionSystem buggy_ts;
  accel::BuildDataflow(buggy_ts, {.bug_credit_leak = true});
  auto& bctx = buggy_ts.ctx();
  auto find_buggy = [&](const std::string& name) {
    for (ir::NodeRef state : buggy_ts.states()) {
      if (buggy_ts.ctx().node(state).name == name) return state;
    }
    return ir::kNullNode;
  };
  NodeRef bsum = bctx.Zext(find_buggy("df.credits"), 3);
  for (const char* name : {"df.s1_full", "df.s2_full", "df.s3_full"}) {
    bsum = bctx.Add(bsum, bctx.Zext(find_buggy(name), 3));
  }
  buggy_ts.AddBad(bctx.Ne(bsum, bctx.Const(3, 2)), "credit_leak");
  const auto buggy_result = Prove(buggy_ts);
  EXPECT_EQ(buggy_result.outcome, BmcResult::Outcome::kCounterexample);
  EXPECT_TRUE(buggy_result.trace_validated);
}

}  // namespace
}  // namespace aqed::bmc
