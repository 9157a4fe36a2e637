// Lane tying of FC data inputs (DESIGN.md §6 item 9).
//
//  * Equivalence: on the memory controller's data-movement configurations
//    and their FC catalog bugs, FC with the data inputs' lanes tied gives
//    the same outcome and the same counterexample length as FC with every
//    lane free, and the tied counterexamples replay.
//  * Rejection: InstrumentFc lists no tied input for a design that reads
//    data into control, starts a data register non-uniform, computes on
//    data, masks it non-uniformly or shares a data word as batch context;
//    SAC on the same system drops the list; and k-induction's step
//    unrolling never ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "accel/memctrl.h"
#include "aqed/fc_instrument.h"
#include "aqed/monitor_util.h"
#include "aqed/sac_instrument.h"
#include "bmc/engine.h"
#include "bmc/unroller.h"
#include "ir/transition_system.h"

namespace aqed {
namespace {

using accel::MemCtrlBug;
using accel::MemCtrlConfig;
using ir::NodeRef;
using ir::Sort;

struct FcRun {
  bmc::BmcResult result;
  std::vector<NodeRef> tied;
};

// FC (with its early-output check) on one memctrl configuration at `bound`;
// `untie` clears the hint's tied inputs before the solve.
FcRun RunFc(MemCtrlConfig config, MemCtrlBug bug, uint32_t bound,
            bool untie) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildMemCtrl(ts, config, bug);
  const core::FcInstrumentation fc = core::InstrumentFc(ts, design.acc);
  ir::TransitionSystem::DataPathHint hint = ts.data_path_hint();
  if (untie) hint.tied_inputs.clear();
  ts.SetDataPathHint(hint);
  bmc::BmcOptions options;
  options.max_bound = bound;
  options.bad_filter = {fc.fc_bad_index, fc.early_output_bad_index};
  return {bmc::RunBmc(ts, options), hint.tied_inputs};
}

void ExpectSameFcOutcome(MemCtrlConfig config, MemCtrlBug bug,
                         uint32_t bound, const std::string& name) {
  const FcRun tied = RunFc(config, bug, bound, /*untie=*/false);
  const FcRun free = RunFc(config, bug, bound, /*untie=*/true);
  ASSERT_EQ(tied.tied.size(), 1u) << name;
  EXPECT_EQ(tied.result.outcome, free.result.outcome) << name;
  ASSERT_NE(tied.result.outcome, bmc::BmcResult::Outcome::kUnknown) << name;
  if (!tied.result.found_bug()) return;
  EXPECT_EQ(tied.result.trace.length(), free.result.trace.length()) << name;
  EXPECT_TRUE(tied.result.trace_validated) << name;
  // Every lane of a tied data word carries the same bit.
  for (const auto& frame : tied.result.trace.inputs) {
    const uint64_t word = frame.at(tied.tied[0]);
    EXPECT_TRUE(word == 0x00 || word == 0xFF) << name << ": " << word;
  }
}

TEST(LaneTieEquivalenceTest, CleanMovementDesignsRefuteAlike) {
  ExpectSameFcOutcome(MemCtrlConfig::kFifo, MemCtrlBug::kNone, 8, "fifo");
  ExpectSameFcOutcome(MemCtrlConfig::kDoubleBuffer, MemCtrlBug::kNone, 8,
                      "double_buffer");
}

TEST(LaneTieEquivalenceTest, MovementCatalogBugsGiveTheSameTraceLength) {
  int checked = 0;
  for (const accel::MemCtrlBugInfo& info : accel::MemCtrlBugCatalog()) {
    if (info.config == MemCtrlConfig::kLineBuffer) continue;
    ExpectSameFcOutcome(info.config, info.bug, 8, info.name);
    ++checked;
  }
  EXPECT_EQ(checked, 11);
}

// --- the structural check ----------------------------------------------------

enum class Flaw {
  kNone,
  kDataFeedsReady,     // in_ready compares the data word
  kDataBitIsReady,     // a 1-bit data word is in_ready
  kNonUniformInit,     // the data register starts at 0x5A
  kAdder,              // the data path doubles the word
  kMask,               // the data path masks the word with 0x0F
  kSharedContext,      // the data word is also batch context
};

// A one-slot buffer: captures a word when empty, offers it until drained.
core::AcceleratorInterface BuildBuffer(ir::TransitionSystem& ts, Flaw flaw) {
  auto& ctx = ts.ctx();
  const uint32_t width = flaw == Flaw::kDataBitIsReady ? 1 : 8;
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(width));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  const NodeRef full = core::Reg(ts, "full", 1, 0);
  const NodeRef buf = core::Reg(ts, "buf", width,
                                flaw == Flaw::kNonUniformInit ? 0x5A : 0);
  NodeRef in_ready = ctx.Not(full);
  if (flaw == Flaw::kDataFeedsReady) {
    in_ready = ctx.And(in_ready, ctx.Ne(in_data, ctx.Const(width, 0)));
  } else if (flaw == Flaw::kDataBitIsReady) {
    in_ready = in_data;
  }
  // A data bit that is in_ready alone must be caught at the interface: the
  // monitor captures on it, the design here does not.
  const NodeRef capture = ctx.And(
      in_valid, flaw == Flaw::kDataBitIsReady ? ctx.Not(full) : in_ready);
  const NodeRef drain = ctx.And(full, host_ready);
  NodeRef stored = in_data;
  if (flaw == Flaw::kAdder) stored = ctx.Add(in_data, in_data);
  if (flaw == Flaw::kMask) stored = ctx.And(in_data, ctx.Const(width, 0x0F));
  core::LatchWhen(ts, buf, capture, stored);
  ts.SetNext(full, ctx.Ite(capture, ctx.True(),
                           ctx.Ite(drain, ctx.False(), full)));
  core::AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = full;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{buf}};
  if (flaw == Flaw::kSharedContext) acc.shared_context = {in_data};
  return acc;
}

std::vector<NodeRef> TiedAfterFc(Flaw flaw) {
  ir::TransitionSystem ts;
  core::InstrumentFc(ts, BuildBuffer(ts, flaw));
  return ts.data_path_hint().tied_inputs;
}

TEST(LaneTieCheckTest, PureMovementIsTied) {
  ir::TransitionSystem ts;
  const core::AcceleratorInterface acc = BuildBuffer(ts, Flaw::kNone);
  core::InstrumentFc(ts, acc);
  EXPECT_EQ(ts.data_path_hint().tied_inputs, acc.data_elems[0]);
}

TEST(LaneTieCheckTest, DataThatFeedsInReadyIsNotTied) {
  EXPECT_TRUE(TiedAfterFc(Flaw::kDataFeedsReady).empty());
  EXPECT_TRUE(TiedAfterFc(Flaw::kDataBitIsReady).empty());
}

TEST(LaneTieCheckTest, RegisterWithNonUniformInitIsNotTied) {
  EXPECT_TRUE(TiedAfterFc(Flaw::kNonUniformInit).empty());
}

TEST(LaneTieCheckTest, AdderInTheDataPathIsNotTied) {
  EXPECT_TRUE(TiedAfterFc(Flaw::kAdder).empty());
}

TEST(LaneTieCheckTest, NonUniformMaskIsNotTied) {
  EXPECT_TRUE(TiedAfterFc(Flaw::kMask).empty());
}

TEST(LaneTieCheckTest, DataWordInSharedContextIsNotTied) {
  EXPECT_TRUE(TiedAfterFc(Flaw::kSharedContext).empty());
}

TEST(LaneTieCheckTest, SacAfterFcDropsTheTie) {
  ir::TransitionSystem ts;
  const core::AcceleratorInterface acc = BuildBuffer(ts, Flaw::kNone);
  core::InstrumentFc(ts, acc);
  ASSERT_FALSE(ts.data_path_hint().tied_inputs.empty());
  core::InstrumentSac(ts, acc,
                      [](ir::Context&, const std::vector<NodeRef>& words) {
                        return words;
                      });
  EXPECT_TRUE(ts.data_path_hint().tied_inputs.empty());
}

// Whether every lane of `input` in frame 0 is one literal.
bool LanesShareOneLiteral(const ir::TransitionSystem& ts, NodeRef input,
                          bool free_initial_state) {
  sat::Solver solver;
  bitblast::GateBuilder gates(solver);
  bitblast::BitBlaster blaster(gates);
  bmc::Unroller unroller(ts, blaster, free_initial_state);
  unroller.AddFrame();
  const bitblast::Bits& bits = unroller.NodeBits(input, 0);
  return std::ranges::all_of(bits,
                             [&](sat::Lit lit) { return lit == bits[0]; });
}

TEST(LaneTieCheckTest, StepUnrollingWithFreeInitialStateDoesNotTie) {
  ir::TransitionSystem ts;
  const core::AcceleratorInterface acc = BuildBuffer(ts, Flaw::kNone);
  core::InstrumentFc(ts, acc);
  const NodeRef in_data = acc.data_elems[0][0];
  EXPECT_TRUE(LanesShareOneLiteral(ts, in_data, false));
  EXPECT_FALSE(LanesShareOneLiteral(ts, in_data, true));
}

}  // namespace
}  // namespace aqed
