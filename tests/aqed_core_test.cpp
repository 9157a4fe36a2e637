// A-QED monitor semantics on small purpose-built accelerators:
//  * FC passes on consistent designs and catches history-dependent bugs;
//  * the strengthened early-output check (footnote 1) fires on spurious
//    outputs;
//  * FC provably cannot see consistently-wrong outputs — SAC closes that gap
//    (Sec. III.C / Proposition 1);
//  * RB separates slow-but-bounded designs from unresponsive ones;
//  * batch mode with a shared-context signal (Sec. IV.B customization);
//  * interface validation rejects malformed descriptions.
#include <gtest/gtest.h>

#include "aqed/checker.h"
#include "aqed/monitor_util.h"
#include "aqed/report.h"

namespace aqed::core {
namespace {

using ir::NodeRef;
using ir::Sort;

struct ToyOptions {
  // Output value: f(x) = x + increment (+ toggle if inconsistent).
  uint64_t increment = 1;
  bool inconsistent_toggle = false;  // alternate outputs by a parity bit
  bool early_output = false;        // assert out_valid from reset
  uint32_t extra_latency = 0;       // additional wait states
};

// One-deep accelerator: capture when idle, respond `1 + extra_latency`
// cycles later with f(x).
AcceleratorInterface BuildToy(ir::TransitionSystem& ts,
                              const ToyOptions& toy) {
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));

  const NodeRef busy = Reg(ts, "busy", 1, 0);
  const NodeRef wait = Reg(ts, "wait", 4, 0);
  const NodeRef held = Reg(ts, "held", 8, 0);
  const NodeRef out_pending = Reg(ts, "out_pending", 1, 0);
  const NodeRef out_reg = Reg(ts, "out_reg", 8, 0);
  const NodeRef parity = Reg(ts, "parity", 1, 0);

  const NodeRef in_ready = ctx.And(ctx.Not(busy), ctx.Not(out_pending));
  const NodeRef capture = ctx.And(in_valid, in_ready);
  NodeRef out_valid = out_pending;
  if (toy.early_output) out_valid = ctx.Or(out_valid, ctx.Not(busy));
  const NodeRef drain = ctx.And(out_valid, host_ready);

  const NodeRef waited =
      ctx.Uge(wait, ctx.Const(4, toy.extra_latency));
  const NodeRef finish = ctx.And(busy, waited);

  LatchWhen(ts, held, capture, in_data);
  ts.SetNext(busy, ctx.Ite(capture, ctx.True(),
                           ctx.Ite(finish, ctx.False(), busy)));
  ts.SetNext(wait, ctx.Ite(capture, ctx.Const(4, 0),
                           ctx.Ite(busy, ctx.Add(wait, ctx.Const(4, 1)),
                                   wait)));
  NodeRef value = ctx.Add(held, ctx.Const(8, toy.increment));
  if (toy.inconsistent_toggle) {
    value = ctx.Ite(parity, ctx.Add(value, ctx.Const(8, 1)), value);
  }
  ts.SetNext(parity, ctx.Ite(capture, ctx.Not(parity), parity));
  LatchWhen(ts, out_reg, finish, value);
  ts.SetNext(out_pending, ctx.Ite(finish, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = out_valid;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{out_reg}};
  return acc;
}

SpecFn ToySpec(uint64_t increment) {
  return [increment](ir::Context& ctx, const std::vector<NodeRef>& in) {
    return std::vector<NodeRef>{
        ctx.Add(in[0], ctx.Const(8, increment))};
  };
}

TEST(FcMonitorTest, ConsistentToyPasses) {
  ir::TransitionSystem ts;
  const auto acc = BuildToy(ts, {});
  AqedOptions options;
  options.bmc.max_bound = 10;
  const auto result = RunAqed(ts, acc, options);
  EXPECT_FALSE(result.bug_found) << FormatResult(ts, result);
}

TEST(FcMonitorTest, InconsistentToggleCaught) {
  ir::TransitionSystem ts;
  ToyOptions toy;
  toy.inconsistent_toggle = true;
  const auto acc = BuildToy(ts, toy);
  AqedOptions options;
  options.bmc.max_bound = 12;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kFunctionalConsistency);
  EXPECT_TRUE(result.bmc.trace_validated);
  // Two transactions and their responses: a short counterexample.
  EXPECT_LE(result.cex_cycles(), 8u);
}

TEST(FcMonitorTest, EarlyOutputCaughtByStrengthenedCheck) {
  ir::TransitionSystem ts;
  ToyOptions toy;
  toy.early_output = true;
  const auto acc = BuildToy(ts, toy);
  AqedOptions options;
  options.bmc.max_bound = 6;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kEarlyOutput);
}

// The paper's key theoretical caveat (Sec. III.C): a bug that is
// *consistently* wrong is invisible to FC but caught by SAC given a spec.
TEST(SacMonitorTest, ConsistentlyWrongOutputInvisibleToFcCaughtBySac) {
  ToyOptions wrong;
  wrong.increment = 2;  // spec says +1

  // FC alone: passes (the design is self-consistent).
  {
    ir::TransitionSystem ts;
    const auto acc = BuildToy(ts, wrong);
    AqedOptions options;
    options.bmc.max_bound = 10;
    const auto result = RunAqed(ts, acc, options);
    EXPECT_FALSE(result.bug_found) << FormatResult(ts, result);
  }
  // FC + SAC with Spec f(x)=x+1: caught by SAC.
  {
    ir::TransitionSystem ts;
    const auto acc = BuildToy(ts, wrong);
    AqedOptions options;
    options.bmc.max_bound = 10;
    options.sac_spec = ToySpec(1);
    const auto result = RunAqed(ts, acc, options);
    ASSERT_TRUE(result.bug_found);
    EXPECT_EQ(result.kind, BugKind::kSingleActionCorrectness);
  }
  // Correct design passes FC + SAC.
  {
    ir::TransitionSystem ts;
    const auto acc = BuildToy(ts, {});
    AqedOptions options;
    options.bmc.max_bound = 10;
    options.sac_spec = ToySpec(1);
    const auto result = RunAqed(ts, acc, options);
    EXPECT_FALSE(result.bug_found) << FormatResult(ts, result);
  }
}

TEST(RbMonitorTest, BoundSeparatesSlowFromUnresponsive) {
  // Latency ~5: passes with tau=8, flagged with tau=3 (bound too tight —
  // the response bound is the one design parameter A-QED needs, Sec. III).
  for (auto [tau, expect_bug] : {std::pair{8u, false}, std::pair{3u, true}}) {
    ir::TransitionSystem ts;
    ToyOptions toy;
    toy.extra_latency = 4;
    const auto acc = BuildToy(ts, toy);
    AqedOptions options;
    options.check_fc = false;
    RbOptions rb;
    rb.tau = tau;
    options.rb = rb;
    options.bmc.max_bound = 16;
    const auto result = RunAqed(ts, acc, options);
    EXPECT_EQ(result.bug_found, expect_bug) << "tau=" << tau;
    if (expect_bug) {
      EXPECT_EQ(result.kind, BugKind::kResponseBound);
    }
  }
}

// --- batch mode with shared context ------------------------------------------

// Two-element batch combinational-latency-1 design sharing a "bias" input
// across the batch; optionally the bias is mis-applied to element 1 only
// on odd transactions.
AcceleratorInterface BuildBatchToy(ir::TransitionSystem& ts,
                                   bool inconsistent) {
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef d0 = ts.AddInput("d0", Sort::BitVec(8));
  const NodeRef d1 = ts.AddInput("d1", Sort::BitVec(8));
  const NodeRef bias = ts.AddInput("bias", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));

  const NodeRef out_pending = Reg(ts, "out_pending", 1, 0);
  const NodeRef o0 = Reg(ts, "o0", 8, 0);
  const NodeRef o1 = Reg(ts, "o1", 8, 0);
  const NodeRef parity = Reg(ts, "parity", 1, 0);

  const NodeRef in_ready = ctx.Not(out_pending);
  const NodeRef capture = ctx.And(in_valid, in_ready);
  const NodeRef out_valid = out_pending;
  const NodeRef drain = ctx.And(out_valid, host_ready);

  LatchWhen(ts, o0, capture, ctx.Add(d0, bias));
  NodeRef e1 = ctx.Add(d1, bias);
  if (inconsistent) {
    e1 = ctx.Ite(parity, ctx.Add(e1, ctx.Const(8, 3)), e1);
  }
  LatchWhen(ts, o1, capture, e1);
  ts.SetNext(parity, ctx.Ite(capture, ctx.Not(parity), parity));
  ts.SetNext(out_pending, ctx.Ite(capture, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = out_valid;
  acc.data_elems = {{d0}, {d1}};
  acc.out_elems = {{o0}, {o1}};
  acc.shared_context = {bias};
  return acc;
}

TEST(BatchFcTest, ConsistentBatchDesignPasses) {
  ir::TransitionSystem ts;
  const auto acc = BuildBatchToy(ts, /*inconsistent=*/false);
  AqedOptions options;
  options.bmc.max_bound = 8;
  const auto result = RunAqed(ts, acc, options);
  EXPECT_FALSE(result.bug_found) << FormatResult(ts, result);
}

TEST(BatchFcTest, CrossBatchInconsistencyCaught) {
  ir::TransitionSystem ts;
  const auto acc = BuildBatchToy(ts, /*inconsistent=*/true);
  AqedOptions options;
  options.bmc.max_bound = 10;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kFunctionalConsistency);
  EXPECT_TRUE(result.bmc.trace_validated);
}

// Same-batch original/duplicate (Fig. 4 allows ORIG_BATCH == DUP_BATCH with
// different element indices): a design that swaps its two element outputs
// can only be caught by comparing two elements of the *same* batch, since
// equal-data elements within one batch must produce equal outputs.
TEST(BatchFcTest, SameBatchDuplicateCatchesElementSwap) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef d0 = ts.AddInput("d0", Sort::BitVec(8));
  const NodeRef d1 = ts.AddInput("d1", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  const NodeRef out_pending = Reg(ts, "out_pending", 1, 0);
  const NodeRef o0 = Reg(ts, "o0", 8, 0);
  const NodeRef o1 = Reg(ts, "o1", 8, 0);
  const NodeRef in_ready = ctx.Not(out_pending);
  const NodeRef capture = ctx.And(in_valid, in_ready);
  const NodeRef drain = ctx.And(out_pending, host_ready);
  // BUG: element outputs crossed — o0 gets f(d1), o1 gets f(d0). For a
  // batch with d0 == d1 the outputs o0 and o1 must match f(d0) == f(d1);
  // they do match each other here, so the cross is only visible when the
  // two elements' *data* are equal but an asymmetric f' sneaks in:
  // make element 1's function differ (f0 = x+1, f1 = x+2) to model a
  // per-lane copy-paste error.
  LatchWhen(ts, o0, capture, ctx.Add(d0, ctx.Const(8, 1)));
  LatchWhen(ts, o1, capture, ctx.Add(d1, ctx.Const(8, 2)));
  ts.SetNext(out_pending, ctx.Ite(capture, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = out_pending;
  acc.data_elems = {{d0}, {d1}};
  acc.out_elems = {{o0}, {o1}};

  // Allow only ONE transaction ever: after the first capture the monitor
  // can only pick orig and dup inside that single batch.
  const NodeRef seen = Reg(ts, "seen", 1, 0);
  SetSticky(ts, seen, capture);
  ts.AddConstraint(ctx.Implies(seen, ctx.Not(in_valid)));

  AqedOptions options;
  options.bmc.max_bound = 6;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kFunctionalConsistency);
  EXPECT_TRUE(result.bmc.trace_validated);
  // orig and dup were necessarily in the same (only) batch.
  EXPECT_LE(result.cex_cycles(), 4u);
}

// --- interface validation ------------------------------------------------------

TEST(InterfaceTest, ValidationCatchesMalformedDescriptions) {
  ir::TransitionSystem ts;
  auto acc = BuildToy(ts, {});
  EXPECT_TRUE(acc.Validate(ts).ok());

  auto missing = acc;
  missing.out_valid = ir::kNullNode;
  EXPECT_FALSE(missing.Validate(ts).ok());

  auto wide_handshake = acc;
  wide_handshake.in_valid = acc.data_elems[0][0];  // 8-bit, not 1-bit
  EXPECT_FALSE(wide_handshake.Validate(ts).ok());

  auto no_data = acc;
  no_data.data_elems.clear();
  EXPECT_FALSE(no_data.Validate(ts).ok());

  auto ragged = acc;
  ragged.out_elems.push_back({});  // batch size mismatch
  EXPECT_FALSE(ragged.Validate(ts).ok());
}

// --- options validation (fluent builder) ------------------------------------

TEST(AqedOptionsBuilderTest, DefaultsAreValid) {
  EXPECT_TRUE(AqedOptions::Builder().Validate().ok());
  const AqedOptions options = AqedOptions::Builder()
                                  .WithRb({.tau = 8})
                                  .WithBound(32)
                                  .WithFcBound(14)
                                  .WithRbBound(20)
                                  .WithConflictBudget(400000)
                                  .Build();
  EXPECT_TRUE(options.check_fc);
  ASSERT_TRUE(options.rb.has_value());
  EXPECT_EQ(options.rb->tau, 8u);
  EXPECT_EQ(options.bmc.max_bound, 32u);
  EXPECT_EQ(options.fc_bound, 14u);
  EXPECT_EQ(options.rb_bound, 20u);
  EXPECT_EQ(options.bmc.conflict_budget, 400000);
}

TEST(AqedOptionsBuilderTest, RejectsEveryPropertyDisabled) {
  EXPECT_FALSE(AqedOptions::Builder().WithoutFc().Validate().ok());
  EXPECT_TRUE(
      AqedOptions::Builder().WithoutFc().WithRb({.tau = 4}).Validate().ok());
}

TEST(AqedOptionsBuilderTest, RejectsBoundOverrideAboveMaxBound) {
  EXPECT_FALSE(
      AqedOptions::Builder().WithBound(8).WithFcBound(14).Validate().ok());
  EXPECT_FALSE(AqedOptions::Builder()
                   .WithRb({.tau = 4})
                   .WithBound(8)
                   .WithRbBound(9)
                   .Validate()
                   .ok());
  EXPECT_TRUE(
      AqedOptions::Builder().WithBound(14).WithFcBound(14).Validate().ok());
  EXPECT_FALSE(AqedOptions::Builder().WithBound(0).Validate().ok());
}

TEST(AqedOptionsBuilderTest, RejectsOverrideForDisabledProperty) {
  // rb_bound without RB enabled, sac_bound without a SAC spec.
  EXPECT_FALSE(AqedOptions::Builder().WithRbBound(4).Validate().ok());
  EXPECT_FALSE(AqedOptions::Builder().WithSacBound(4).Validate().ok());
  // fc_bound after FC was turned off.
  EXPECT_FALSE(AqedOptions::Builder()
                   .WithoutFc()
                   .WithRb({.tau = 4})
                   .WithFcBound(4)
                   .Validate()
                   .ok());
}

TEST(AqedOptionsBuilderTest, RejectsDegenerateRb) {
  EXPECT_FALSE(AqedOptions::Builder().WithRb({.tau = 0}).Validate().ok());
  RbOptions rb;
  rb.tau = 4;
  rb.in_min = 0;
  EXPECT_FALSE(AqedOptions::Builder().WithRb(rb).Validate().ok());
}

// RunBmc can prove by k-induction, but a job has no word for a proof yet.
TEST(AqedOptionsBuilderTest, RejectsProofRequests) {
  AqedOptions options;
  options.bmc.prove = true;
  const Status valid = options.Validate();
  EXPECT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("4(b)"), std::string::npos)
      << valid.message();
}

TEST(AqedOptionsBuilderTest, SeedsFromLegacyStructAndRevalidates) {
  // Struct-poked legacy configuration, fluently adjusted.
  AqedOptions legacy;
  legacy.rb = RbOptions{};
  legacy.rb->tau = 8;
  legacy.fc_bound = 14;
  const AqedOptions tightened =
      AqedOptions::Builder(legacy).WithBound(14).Build();
  EXPECT_EQ(tightened.bmc.max_bound, 14u);
  EXPECT_EQ(tightened.fc_bound, 14u);
  // The same seed with an incoherent tweak is rejected.
  EXPECT_FALSE(AqedOptions::Builder(legacy).WithBound(10).Validate().ok());
}

// --- depth-zero counterexamples ----------------------------------------------

// A bug reachable in the *initial* frame (BMC depth 0) must report a trace
// of 1 cycle, never 0: a depth-d counterexample has d + 1 frames.

TEST(DepthZeroTest, CycleZeroSacViolationReportsOneCycleTrace) {
  // Purely combinational responder: out_valid mirrors in_valid, so the
  // wrong function (+1 against a +2 spec) is visible in cycle 0 already.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = ctx.True();
  acc.host_ready = host_ready;
  acc.out_valid = in_valid;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{ctx.Add(in_data, ctx.Const(8, 1))}};

  AqedOptions options;
  options.check_fc = false;
  options.sac_spec = ToySpec(2);
  options.bmc.max_bound = 4;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kSingleActionCorrectness);
  EXPECT_EQ(result.bmc.trace.length(), 1u);
  EXPECT_EQ(result.cex_cycles(), 1u);
}

TEST(DepthZeroTest, ResetTimeEarlyOutputReportsOneCycleTrace) {
  // out_valid asserted straight out of reset, before any input was ever
  // captured: the strengthened FC check fires in the initial frame.
  ir::TransitionSystem ts;
  ToyOptions toy;
  toy.early_output = true;
  const auto acc = BuildToy(ts, toy);
  AqedOptions options;
  options.bmc.max_bound = 2;
  const auto result = RunAqed(ts, acc, options);
  ASSERT_TRUE(result.bug_found);
  EXPECT_EQ(result.kind, BugKind::kEarlyOutput);
  EXPECT_EQ(result.bmc.trace.length(), 1u);
  EXPECT_EQ(result.cex_cycles(), 1u);
}

TEST(MonitorUtilTest, IndexWidthAndMux) {
  EXPECT_EQ(IndexWidth(1), 1u);
  EXPECT_EQ(IndexWidth(2), 1u);
  EXPECT_EQ(IndexWidth(3), 2u);
  EXPECT_EQ(IndexWidth(4), 2u);
  EXPECT_EQ(IndexWidth(5), 3u);
  EXPECT_EQ(IndexWidth(16), 4u);
}

}  // namespace
}  // namespace aqed::core
