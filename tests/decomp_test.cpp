// A-QED² functional decomposition tests: cut-point declaration validation
// (names resolve, cuts partition the design), fragment verdicts vs the
// monolithic check on a small configuration where both complete, verdict
// determinism across worker counts, isomorphic-fragment dedup, the
// cross-run SolveCache, and the acceptance gate — the bench-sized widepipe
// is UNKNOWN (conflict budget) monolithically but verifies clean
// decomposed, and a bug injected into one stage is caught decomposed. Also
// the checker-error rule every verdict fold shares: a counterexample that
// fails simulator replay leaves its entry undecided.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "accel/widepipe.h"
#include "aqed/checker.h"
#include "aqed/report.h"
#include "decomp/decomposition.h"
#include "decomp/session.h"
#include "fault/campaign.h"
#include "ir/btor2.h"
#include "ir/digest.h"
#include "service/cache.h"
#include "support/failpoint.h"
#include "support/record.h"

namespace aqed::decomp {
namespace {

// The small widepipe: monolithically tractable (sub-second), so composed
// and monolithic verdicts can be compared directly.
accel::WidePipeConfig SmallConfig(int32_t bug_stage = -1) {
  return {.lanes = 2, .stages = 2, .width = 4, .bug_stage = bug_stage};
}

core::AqedOptions MonoOptions(const accel::WidePipeConfig& config) {
  return core::AqedOptions::Builder()
      .WithBound(accel::WidePipeMonolithicBound(config))
      .Build();
}

DecompositionResult RunDecomposed(const accel::WidePipeConfig& config,
                                  DecompOptions options = {}) {
  options.aqed = MonoOptions(config);
  DecomposedSession session(accel::WidePipeDecomposition(config), options);
  StatusOr<DecompositionResult> result = session.Run();
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.status().message());
  return std::move(result).value();
}

// --- declaration validation --------------------------------------------------

TEST(DecompositionTest, AnalyzeReportsThePartition) {
  const accel::WidePipeConfig config = SmallConfig();
  const StatusOr<CutCoverage> coverage =
      accel::WidePipeDecomposition(config).Analyze();
  ASSERT_TRUE(coverage.ok()) << coverage.status().message();
  ASSERT_EQ(coverage.value().subs.size(), config.stages);
  uint32_t claimed = 0;
  for (const CutCoverage::Sub& sub : coverage.value().subs) {
    claimed += sub.states_claimed;
  }
  // The partition is total: every parent state claimed exactly once.
  EXPECT_EQ(claimed, coverage.value().total_states);
  // Stage 0 owns the real host inputs (no cuts); stage 1 cuts at stage 0's
  // valid + lane registers.
  EXPECT_EQ(coverage.value().subs[0].cut_signals, 0u);
  EXPECT_EQ(coverage.value().subs[1].cut_signals, 1u + config.lanes);
}

TEST(DecompositionTest, FragmentRebuildsArePinned) {
  // Every fragment of a buggy small pipeline and of the bench pipeline:
  // the anonymous digests the session dedups on, and one hash over the
  // fragments' BTOR2 text and interfaces, which moves with any node.
  accel::WidePipeConfig small = SmallConfig(/*bug_stage=*/1);
  small.stages = 3;
  std::vector<uint64_t> digests;
  uint64_t hash = support::kFnvOffset;
  for (const accel::WidePipeConfig& config :
       {small, accel::WidePipeBenchConfig()}) {
    const Decomposition decomposition = accel::WidePipeDecomposition(config);
    for (size_t i = 0; i < decomposition.subs().size(); ++i) {
      ir::TransitionSystem frag;
      const core::AcceleratorInterface acc =
          decomposition.BuilderFor(i)(frag);
      digests.push_back(ir::AnonymousStructuralDigest(frag));
      hash = support::MixText(hash, ir::ToBtor2(frag));
      for (const auto& elems : {acc.data_elems, acc.out_elems}) {
        for (const auto& elem : elems) {
          for (ir::NodeRef word : elem) hash = support::MixInt(hash, word);
        }
      }
      for (ir::NodeRef ref :
           {acc.in_valid, acc.in_ready, acc.host_ready, acc.out_valid}) {
        hash = support::MixInt(hash, ref);
      }
    }
  }
  // Stage 0 and stage 2 of the small pipeline are isomorphic; stage 1
  // carries the bug. The six bench stages share one digest.
  const uint64_t clean = 0x9656ab6a42de7909ull;
  const uint64_t bench = 0xdf4679d8d2041cceull;
  const uint64_t buggy = 0xead2e1b21b2f6e70ull;
  EXPECT_EQ(digests, (std::vector<uint64_t>{clean, buggy, clean, bench, bench,
                                            bench, bench, bench, bench}));
  EXPECT_EQ(hash, 0xa9730bb8b56b3578ull);
}

TEST(DecompositionTest, UnknownSignalNamesAreValidationErrors) {
  const accel::WidePipeConfig config = SmallConfig();
  Decomposition decomposition("widepipe", [config](ir::TransitionSystem& ts) {
    return accel::BuildWidePipe(ts, config).acc;
  });
  SubAccelerator sub("stage1");
  sub.Cut("s0.valid")
      .Cut("s0.no_such_reg")  // typo'd cut
      .WithInValid("s0.valid")
      .WithDataElem({"s0.r0", "s0.r1"})
      .WithOutElem({"s1.r0", "s1.r1"})
      .WithInReady("one")
      .WithHostReady("one")
      .WithOutValid("s1.valid");
  decomposition.Add(std::move(sub));
  const Status status = decomposition.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("s0.no_such_reg"), std::string::npos);
}

TEST(DecompositionTest, UnclaimedStatesFailThePartitionCheck) {
  const accel::WidePipeConfig config = SmallConfig();
  Decomposition decomposition("widepipe", [config](ir::TransitionSystem& ts) {
    return accel::BuildWidePipe(ts, config).acc;
  });
  // Only stage 1 declared: stage 0's registers are nobody's.
  SubAccelerator sub("stage1");
  sub.Cut({"s0.valid", "s0.r0", "s0.r1"})
      .WithInValid("s0.valid")
      .WithDataElem({"s0.r0", "s0.r1"})
      .WithOutElem({"s1.r0", "s1.r1"})
      .WithInReady("one")
      .WithHostReady("one")
      .WithOutValid("s1.valid");
  decomposition.Add(std::move(sub));
  const Status status = decomposition.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unclaimed states"), std::string::npos);
  EXPECT_NE(status.message().find("s0.r0"), std::string::npos);
}

TEST(DecompositionTest, DoublyClaimedStatesFailThePartitionCheck) {
  const accel::WidePipeConfig config = SmallConfig();
  // Both stages declared without the cut between them: stage 1's cone
  // reaches through stage 0's registers, so every stage-0 state is claimed
  // twice.
  Decomposition decomposition("widepipe", [config](ir::TransitionSystem& ts) {
    return accel::BuildWidePipe(ts, config).acc;
  });
  SubAccelerator stage0("stage0");
  stage0.WithInValid("in_valid")
      .WithDataElem({"in0", "in1"})
      .WithOutElem({"s0.r0", "s0.r1"})
      .WithInReady("one")
      .WithHostReady("one")
      .WithOutValid("s0.valid");
  SubAccelerator stage1("stage1");
  stage1.WithInValid("in_valid")
      .WithDataElem({"in0", "in1"})
      .WithOutElem({"s1.r0", "s1.r1"})
      .WithInReady("one")
      .WithHostReady("one")
      .WithOutValid("s1.valid");
  decomposition.Add(std::move(stage0)).Add(std::move(stage1));
  const Status status = decomposition.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("claimed by multiple"), std::string::npos);
}

// --- composed vs monolithic verdicts ----------------------------------------

TEST(DecompTest, CleanComposedVerdictMatchesTheMonolithicCheck) {
  const accel::WidePipeConfig config = SmallConfig();
  const core::SessionResult mono = core::CheckAccelerator(
      [config](ir::TransitionSystem& ts) {
        return accel::BuildWidePipe(ts, config).acc;
      },
      MonoOptions(config));
  ASSERT_FALSE(mono.bug_found());
  ASSERT_EQ(mono.unknown_reason(), UnknownReason::kNone);

  const DecompositionResult decomposed = RunDecomposed(config);
  EXPECT_TRUE(decomposed.clean());
  EXPECT_FALSE(decomposed.bug_found());
  EXPECT_EQ(decomposed.num_unknown(), 0u);
  EXPECT_EQ(decomposed.subs.size(), config.stages);
}

TEST(DecompTest, BuggyDesignIsCaughtByBothFlows) {
  const accel::WidePipeConfig config = SmallConfig(/*bug_stage=*/1);
  const core::SessionResult mono = core::CheckAccelerator(
      [config](ir::TransitionSystem& ts) {
        return accel::BuildWidePipe(ts, config).acc;
      },
      MonoOptions(config));
  EXPECT_TRUE(mono.bug_found());

  const DecompositionResult decomposed = RunDecomposed(config);
  ASSERT_TRUE(decomposed.bug_found());
  // The bug is localized: decomposition names the offending fragment.
  EXPECT_EQ(decomposed.FirstBug()->name, "stage1");
  EXPECT_EQ(decomposed.FirstBug()->classification,
            fault::Classification::kDetectedFc);
  EXPECT_GT(decomposed.FirstBug()->cex_cycles, 0u);
}

TEST(DecompTest, BugInAnySingleStageIsDetected) {
  // Three stages; the tailgate bug walks through first / middle / last.
  for (int32_t bug_stage = 0; bug_stage < 3; ++bug_stage) {
    accel::WidePipeConfig config = SmallConfig(bug_stage);
    config.stages = 3;
    const DecompositionResult result = RunDecomposed(config);
    ASSERT_TRUE(result.bug_found()) << "bug_stage=" << bug_stage;
    EXPECT_EQ(result.FirstBug()->name,
              "stage" + std::to_string(bug_stage));
  }
}

// --- determinism and dedup ---------------------------------------------------

TEST(DecompTest, VerdictDigestIsIdenticalAcrossWorkerCounts) {
  const accel::WidePipeConfig config = SmallConfig(/*bug_stage=*/1);
  DecompOptions seq;
  seq.session.jobs = 1;
  DecompOptions par;
  par.session.jobs = 8;
  const DecompositionResult a = RunDecomposed(config, seq);
  const DecompositionResult b = RunDecomposed(config, par);
  EXPECT_EQ(a.VerdictDigest(), b.VerdictDigest());
  // Recorded value: the digest's bytes must survive refactors of its hash.
  EXPECT_EQ(a.VerdictDigest(), 0xd007f41482791c7aull);
}

TEST(DecompTest, IsomorphicCleanStagesCollapseToOneSolve) {
  accel::WidePipeConfig config = SmallConfig();
  config.stages = 4;
  const DecompositionResult result = RunDecomposed(config);
  ASSERT_TRUE(result.clean());
  // The stages are structurally identical under the anonymous digest, so
  // one representative is solved and the rest alias onto it.
  EXPECT_EQ(result.jobs_enqueued, 1u);
  EXPECT_EQ(result.deduped, config.stages - 1);
  for (size_t i = 1; i < result.subs.size(); ++i) {
    EXPECT_EQ(result.subs[i].fragment_digest, result.subs[0].fragment_digest);
    EXPECT_TRUE(result.subs[i].deduped);
  }
}

TEST(DecompTest, BuggyStageDigestsDifferentlyAndIsSolvedSeparately) {
  const accel::WidePipeConfig config = SmallConfig(/*bug_stage=*/1);
  const DecompositionResult result = RunDecomposed(config);
  ASSERT_TRUE(result.bug_found());
  // The shadow/b2b registers make stage 1 structurally distinct: it must
  // never inherit the clean stage's verdict.
  EXPECT_NE(result.subs[0].fragment_digest, result.subs[1].fragment_digest);
  EXPECT_FALSE(result.subs[1].deduped);
  EXPECT_FALSE(result.subs[1].cached);
}

TEST(DecompTest, SecondRunIsServedFromTheSolveCache) {
  const accel::WidePipeConfig config = SmallConfig();
  service::SolveCache cache;
  DecompOptions options;
  options.cache = &cache;

  const DecompositionResult cold = RunDecomposed(config, options);
  ASSERT_TRUE(cold.clean());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.jobs_enqueued, 1u);

  const DecompositionResult warm = RunDecomposed(config, options);
  ASSERT_TRUE(warm.clean());
  // Every fragment answered before the scheduler: hits peel off ahead of
  // dedup, so nothing is enqueued at all.
  EXPECT_EQ(warm.cache_hits, config.stages);
  EXPECT_EQ(warm.jobs_enqueued, 0u);
  for (const SubVerdict& sub : warm.subs) {
    EXPECT_TRUE(sub.cached);
  }
  EXPECT_EQ(cold.VerdictDigest(), warm.VerdictDigest());
}

TEST(DecompTest, CacheRoundTripsThroughDiskAcrossSessions) {
  const std::string path =
      "/tmp/aqed_decomp_cache_" + std::to_string(::getpid()) + ".jsonl";
  const accel::WidePipeConfig config = SmallConfig();
  {
    service::SolveCache cache;
    DecompOptions options;
    options.cache = &cache;
    ASSERT_TRUE(RunDecomposed(config, options).clean());
    ASSERT_TRUE(cache.Save(path).ok());
  }
  {
    service::SolveCache cache;
    ASSERT_TRUE(cache.Load(path).ok());
    DecompOptions options;
    options.cache = &cache;
    const DecompositionResult warm = RunDecomposed(config, options);
    EXPECT_TRUE(warm.clean());
    EXPECT_EQ(warm.jobs_enqueued, 0u);
    EXPECT_EQ(warm.cache_hits, config.stages);
  }
  std::remove(path.c_str());
}

// --- the acceptance gate: too big monolithically, tractable decomposed ------

TEST(DecompAcceptanceTest, BenchConfigBlowsTheMonolithicConflictBudget) {
  const accel::WidePipeConfig config = accel::WidePipeBenchConfig();
  core::SessionOptions session;
  session.jobs = 1;
  session.retry.max_retries = 0;
  // A per-depth budget, so the outcome is the same on every host: the
  // shallow depths refute within a few hundred conflicts in total, and the
  // deepest depths, which span the whole pipeline, each exhaust it
  // (about 2 s of search).
  const core::SessionResult mono = core::CheckAccelerator(
      [config](ir::TransitionSystem& ts) {
        return accel::BuildWidePipe(ts, config).acc;
      },
      core::AqedOptions::Builder()
          .WithBound(accel::WidePipeMonolithicBound(config))
          .WithConflictBudget(2000)
          .Build(),
      session);
  EXPECT_FALSE(mono.bug_found());
  EXPECT_EQ(mono.unknown_reason(), UnknownReason::kConflictBudget);
}

TEST(DecompAcceptanceTest, BenchConfigVerifiesCleanDecomposed) {
  const accel::WidePipeConfig config = accel::WidePipeBenchConfig();
  DecompOptions options;
  options.session.jobs = 2;
  const DecompositionResult result = RunDecomposed(config, options);
  EXPECT_TRUE(result.clean());
  // All six stages are isomorphic: the whole design costs one solve.
  EXPECT_EQ(result.jobs_enqueued, 1u);
  EXPECT_EQ(result.deduped, config.stages - 1);
}

TEST(DecompAcceptanceTest, BenchConfigBugIsCaughtDecomposed) {
  accel::WidePipeConfig config = accel::WidePipeBenchConfig();
  config.bug_stage = 3;
  DecompOptions options;
  options.session.jobs = 2;
  // First-bug-wins across the whole decomposition: the buggy fragment's
  // (fast, SAT) refutation cancels the clean stages' solve.
  options.session.cancel = core::SessionOptions::CancelPolicy::kSession;
  const DecompositionResult result = RunDecomposed(config, options);
  ASSERT_TRUE(result.bug_found());
  EXPECT_EQ(result.FirstBug()->name, "stage3");
  EXPECT_EQ(result.FirstBug()->classification,
            fault::Classification::kDetectedFc);
}

// --- checker errors ----------------------------------------------------------

#if AQED_FAILPOINTS_ENABLED

// A counterexample whose simulator replay fails is a checker error, never a
// verdict about the design. The campaign, the solve cache, the decomposed
// session and the session's own count must all read it as undecided. The
// "bmc.replay" failpoint fails every replay while armed.
TEST(CheckerErrorTest, FailedReplayLeavesTheEntryUndecidedEverywhere) {
  const accel::WidePipeConfig config = SmallConfig(/*bug_stage=*/1);
  const core::AcceleratorBuilder build = [config](ir::TransitionSystem& ts) {
    return accel::BuildWidePipe(ts, config).acc;
  };
  fault::DesignUnderTest dut;
  dut.name = "widepipe-bug";
  dut.build = build;
  dut.options = MonoOptions(config);
  fault::FaultCampaignOptions campaign;
  campaign.num_mutants = 1;
  campaign.seed = 1;  // samples a mutant that keeps the stage-1 bug

  // Control: with replay working, the sampled mutant's bug is detected.
  const fault::FaultCampaignResult control =
      fault::RunFaultCampaign({&dut, 1}, campaign);
  ASSERT_EQ(control.mutants.size(), 1u);
  ASSERT_EQ(control.num_detected(), 1u) << control.ToTable();

  support::failpoint::Arm(
      "bmc.replay", {support::FailpointAction::kReturnError, /*skip=*/0,
                     /*limit=*/0});
  service::SolveCache cache;
  service::CampaignCacheAdapter adapter(cache);
  campaign.cache = &adapter;
  const fault::FaultCampaignResult result =
      fault::RunFaultCampaign({&dut, 1}, campaign);
  ASSERT_EQ(result.mutants.size(), 1u);
  EXPECT_EQ(result.mutants[0].classification, fault::Classification::kUnknown);
  EXPECT_EQ(cache.size(), 0u);

  DecompOptions options;
  options.cache = &cache;
  const DecompositionResult decomposed = RunDecomposed(config, options);
  ASSERT_EQ(decomposed.subs.size(), 2u);
  EXPECT_EQ(decomposed.subs[0].classification,
            fault::Classification::kSurvived);
  EXPECT_EQ(decomposed.subs[1].classification,
            fault::Classification::kUnknown);
  EXPECT_FALSE(decomposed.bug_found());
  // Only the clean stage's verdict was cached.
  EXPECT_EQ(cache.size(), 1u);

  const core::SessionResult session =
      core::CheckAccelerator(build, MonoOptions(config));
  EXPECT_FALSE(session.bug_found());
  EXPECT_TRUE(session.jobs[0].checker_error);
  EXPECT_EQ(session.num_unknown(), 1u);
  EXPECT_EQ(core::SummarizeResult(session.aqed()).rfind("CHECKER ERROR", 0),
            0u);
  EXPECT_GT(support::failpoint::FireCount("bmc.replay"), 0u);
  support::failpoint::DisarmAll();
}

#endif  // AQED_FAILPOINTS_ENABLED

}  // namespace
}  // namespace aqed::decomp
