// Memory-controller unit case study: every catalog bug must be caught by
// A-QED with the expected property (FC or RB) and a validated minimal
// counterexample; every correct configuration must pass; the conventional
// random flow must catch the non-corner bugs and miss the corner cases.
#include <gtest/gtest.h>

#include "accel/memctrl.h"
#include "aqed/checker.h"
#include "aqed/fc_instrument.h"
#include "aqed/report.h"
#include "bmc/unroller.h"
#include "harness/conventional_flow.h"
#include "service/registry.h"
#include "sim/simulator.h"

namespace aqed {
namespace {

using accel::BuildMemCtrl;
using accel::MemCtrlBug;
using accel::MemCtrlBugCatalog;
using accel::MemCtrlBugInfo;
using accel::MemCtrlConfig;
using accel::MemCtrlGolden;
using accel::MemCtrlResponseBound;

core::AqedOptions MemCtrlAqedOptions(MemCtrlConfig config) {
  core::AqedOptions options;
  core::RbOptions rb;
  rb.tau = MemCtrlResponseBound(config);
  rb.in_min = config == MemCtrlConfig::kDoubleBuffer ? 2 : 1;
  options.rb = rb;
  return options;
}

harness::CampaignOptions ConventionalOptions(MemCtrlConfig config) {
  harness::CampaignOptions options;
  options.num_seeds = 20;
  options.testbench.max_cycles = 300;   // one directed-test run
  options.testbench.data_pool = 6;
  options.testbench.hang_timeout = 200;
  // Results are compared when the test completes, as application-level
  // testbenches do — a failing conventional trace is the whole test.
  options.testbench.end_of_test_checking = true;
  // Stimulus assumptions of the hand-written testbenches — the blind spots
  // behind Fig. 5's escapes: every configuration's bench ties clock-enable
  // high; the line-buffer bench additionally keeps the host always ready
  // ("the element completes in six cycles anyway").
  options.testbench.pinned_inputs = {{"clk_en", 1}};
  if (config == MemCtrlConfig::kLineBuffer) {
    options.testbench.host_ready_prob = 256;
  }
  return options;
}

// --- simulation sanity for the three correct configurations ----------------

void DriveAndCheck(MemCtrlConfig config, uint32_t num_elems) {
  ir::TransitionSystem ts;
  const auto design = BuildMemCtrl(ts, config);
  ASSERT_TRUE(ts.Validate().ok());
  sim::Simulator sim(ts);
  const auto golden = MemCtrlGolden(config);

  Rng rng(7 + static_cast<uint64_t>(config));
  std::vector<std::vector<uint64_t>> expected;
  uint32_t sent = 0, received = 0;
  for (int cycle = 0; cycle < 500 && received < num_elems; ++cycle) {
    const bool try_send = sent < num_elems;
    sim.SetInput(design.acc.in_valid, try_send ? 1 : 0);
    std::vector<uint64_t> words;
    for (ir::NodeRef word : design.acc.data_elems[0]) {
      const uint64_t value = rng.NextBits(8);
      sim.SetInput(word, value);
      words.push_back(value);
    }
    sim.SetInput(design.acc.host_ready, 1);
    sim.SetInput(design.clk_en, 1);
    sim.Eval();
    if (try_send && sim.Value(design.acc.in_ready)) {
      expected.push_back(golden(words, {}));
      ++sent;
    }
    if (sim.Value(design.acc.out_valid)) {
      ASSERT_LT(received, expected.size()) << "output before input";
      EXPECT_EQ(sim.Value(design.acc.out_elems[0][0]),
                expected[received][0])
          << "element " << received << " config "
          << accel::MemCtrlConfigName(config);
      ++received;
    }
    sim.Step();
  }
  EXPECT_EQ(received, num_elems);
}

TEST(MemCtrlSim, FifoMovesDataInOrder) {
  DriveAndCheck(MemCtrlConfig::kFifo, 12);
}
TEST(MemCtrlSim, DoubleBufferMovesDataInOrder) {
  DriveAndCheck(MemCtrlConfig::kDoubleBuffer, 12);
}
TEST(MemCtrlSim, LineBufferComputesStencil) {
  DriveAndCheck(MemCtrlConfig::kLineBuffer, 8);
}

// --- A-QED on the correct configurations -----------------------------------

class MemCtrlCleanTest : public ::testing::TestWithParam<MemCtrlConfig> {};

TEST_P(MemCtrlCleanTest, CorrectConfigPassesAqed) {
  const auto options =
      core::AqedOptions::Builder(MemCtrlAqedOptions(GetParam()))
          .WithBound(8)  // genuine UNSAT up to the bound, no budget
          .Build();
  const auto result = core::CheckAccelerator(
      [&](ir::TransitionSystem& t) { return BuildMemCtrl(t, GetParam()).acc; },
      options);
  EXPECT_FALSE(result.bug_found())
      << core::FormatResult(result.ts(), result.aqed());
  EXPECT_EQ(result.aqed().bmc.outcome,
            bmc::BmcResult::Outcome::kBoundReached);
}

INSTANTIATE_TEST_SUITE_P(Configs, MemCtrlCleanTest,
                         ::testing::Values(MemCtrlConfig::kFifo,
                                           MemCtrlConfig::kDoubleBuffer,
                                           MemCtrlConfig::kLineBuffer),
                         [](const auto& info) {
                           return accel::MemCtrlConfigName(info.param);
                         });

// --- A-QED over the full bug catalog ----------------------------------------

class MemCtrlBugTest : public ::testing::TestWithParam<MemCtrlBugInfo> {};

TEST_P(MemCtrlBugTest, AqedCatchesWithExpectedProperty) {
  const MemCtrlBugInfo& info = GetParam();
  auto options = MemCtrlAqedOptions(info.config);
  options.fc_bound = 14;
  options.rb_bound = 20;
  // Bounded effort per depth: deep FC refutations give way to the RB pass
  // (industrial BMC practice; soundness of found bugs is unaffected).
  options.bmc.conflict_budget = 400000;
  const auto result = core::CheckAccelerator(
      [&](ir::TransitionSystem& t) {
        return BuildMemCtrl(t, info.config, info.bug).acc;
      },
      options);
  ASSERT_TRUE(result.bug_found())
      << info.name << ": " << core::SummarizeResult(result.aqed());
  EXPECT_TRUE(result.aqed().bmc.trace_validated);
  if (info.rb_expected) {
    EXPECT_EQ(result.kind(), core::BugKind::kResponseBound) << info.name;
  } else {
    EXPECT_TRUE(result.kind() == core::BugKind::kFunctionalConsistency ||
                result.kind() == core::BugKind::kEarlyOutput)
        << info.name << " detected as " << core::BugKindName(result.kind());
  }
  EXPECT_LE(result.cex_cycles(), 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, MemCtrlBugTest,
    ::testing::ValuesIn(MemCtrlBugCatalog().begin(),
                        MemCtrlBugCatalog().end()),
    [](const auto& info) { return std::string(info.param.name); });

// --- FC data-path abstraction on the catalog -------------------------------

// The line buffer's multiply-accumulate feeds only the output word, so FC
// abstracts it. These two bugs' first abstract models are spurious; one
// refinement each makes them concrete, at the concrete counterexample
// lengths, and the traces replay.
TEST(MemCtrlAbstractionTest, LineBufferBugsAreFoundAfterRefinement) {
  const std::pair<MemCtrlBug, uint32_t> cases[] = {
      {MemCtrlBug::kLbStaleAccum, 9}, {MemCtrlBug::kLbBusyDoubleStep, 8}};
  for (const auto& [bug, cex_cycles] : cases) {
    auto options = MemCtrlAqedOptions(MemCtrlConfig::kLineBuffer);
    options.fc_bound = 14;
    options.bmc.conflict_budget = 400000;
    const auto result = core::CheckAccelerator(
        [bug](ir::TransitionSystem& t) {
          return BuildMemCtrl(t, MemCtrlConfig::kLineBuffer, bug).acc;
        },
        core::RestrictTo(options, core::PropertyGroup::kFc));
    ASSERT_TRUE(result.bug_found()) << static_cast<int>(bug);
    EXPECT_EQ(result.kind(), core::BugKind::kFunctionalConsistency);
    EXPECT_EQ(result.cex_cycles(), cex_cycles) << static_cast<int>(bug);
    EXPECT_GE(result.aqed().bmc.refinements, 1u) << static_cast<int>(bug);
    EXPECT_TRUE(result.aqed().bmc.trace_validated);
  }
}

// The FIFO's data path runs through its memory: the pointer increments are
// array indices, so FC abstracts nothing and its refutation is unchanged.
TEST(MemCtrlAbstractionTest, FifoAbstractsNothing) {
  ir::TransitionSystem ts;
  const auto design = BuildMemCtrl(ts, MemCtrlConfig::kFifo);
  core::InstrumentFc(ts, design.acc);
  sat::Solver solver;
  bitblast::GateBuilder gates(solver);
  bitblast::BitBlaster blaster(gates);
  const bmc::Unroller unroller(ts, blaster);
  EXPECT_TRUE(unroller.abstracted_nodes().empty());
}

// The deadlocking FIFO stalls with words inside, so FC must refute every
// depth to the study's bound 14 within its 400,000-conflict budget per
// depth; only tied data lanes (DESIGN.md §6 item 9) keep that in budget.
TEST(MemCtrlLaneTieTest, StallDeadlockFcJobEndsDecided) {
  const auto result = core::CheckAccelerator(
      [](ir::TransitionSystem& t) {
        return BuildMemCtrl(t, MemCtrlConfig::kFifo,
                            MemCtrlBug::kFifoStallDeadlock)
            .acc;
      },
      core::RestrictTo(service::MemCtrlStudyOptions(MemCtrlConfig::kFifo),
                       core::PropertyGroup::kFc));
  EXPECT_FALSE(result.bug_found());
  EXPECT_EQ(result.aqed().bmc.outcome,
            bmc::BmcResult::Outcome::kBoundReached);
  EXPECT_EQ(result.aqed().bmc.frames_explored, 14u);
}

// --- conventional flow over the catalog --------------------------------------

class MemCtrlConventionalTest
    : public ::testing::TestWithParam<MemCtrlBugInfo> {};

TEST_P(MemCtrlConventionalTest, DetectionMatchesCornerCaseStatus) {
  const MemCtrlBugInfo& info = GetParam();
  const auto campaign = harness::RunCampaign(
      [&](ir::TransitionSystem& ts) {
        return BuildMemCtrl(ts, info.config, info.bug).acc;
      },
      MemCtrlGolden(info.config), ConventionalOptions(info.config));
  if (info.corner_case) {
    EXPECT_FALSE(campaign.bug_detected)
        << info.name << " should escape the conventional flow";
  } else {
    EXPECT_TRUE(campaign.bug_detected)
        << info.name << " should be caught by the conventional flow";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, MemCtrlConventionalTest,
    ::testing::ValuesIn(MemCtrlBugCatalog().begin(),
                        MemCtrlBugCatalog().end()),
    [](const auto& info) { return std::string(info.param.name); });

TEST(MemCtrlConventionalTest, CorrectConfigsRunClean) {
  for (MemCtrlConfig config :
       {MemCtrlConfig::kFifo, MemCtrlConfig::kDoubleBuffer,
        MemCtrlConfig::kLineBuffer}) {
    harness::CampaignOptions options = ConventionalOptions(config);
    options.num_seeds = 2;
    options.testbench.max_cycles = 3000;
    const auto campaign = harness::RunCampaign(
        [&](ir::TransitionSystem& ts) {
          return BuildMemCtrl(ts, config).acc;
        },
        MemCtrlGolden(config), options);
    EXPECT_FALSE(campaign.bug_detected)
        << accel::MemCtrlConfigName(config) << " outcome "
        << static_cast<int>(campaign.outcome) << " at cycle "
        << campaign.detection_cycle;
  }
}

// With unconstrained stimulus (clock-enable and host back-pressure toggled),
// even the random flow can reach the corner cases — the escapes above are a
// property of the testbench's stimulus assumptions, not of simulation.
TEST(MemCtrlConventionalTest, UnpinnedStimulusReachesCornerCase) {
  harness::CampaignOptions options;
  options.num_seeds = 10;
  options.testbench.max_cycles = 30000;
  options.testbench.data_pool = 4;
  const auto campaign = harness::RunCampaign(
      [](ir::TransitionSystem& ts) {
        return BuildMemCtrl(ts, MemCtrlConfig::kFifo,
                            MemCtrlBug::kFifoClockEnableRd)
            .acc;
      },
      MemCtrlGolden(MemCtrlConfig::kFifo), options);
  EXPECT_TRUE(campaign.bug_detected);
}

}  // namespace
}  // namespace aqed
