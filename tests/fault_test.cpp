// Fault-injection engine and resource-governance tests: deterministic
// mutant enumeration/sampling, mutant validity and observability, UNKNOWN
// reason codes through solver/BMC/session, the escalating-budget retry
// policy, campaign classification determinism across worker counts, and
// the campaign's precedence rounds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "accel/dataflow.h"
#include "accel/memctrl.h"
#include "aqed/checker.h"
#include "aqed/monitor_util.h"
#include "bmc/engine.h"
#include "fault/campaign.h"
#include "fault/mutator.h"
#include "ir/btor2.h"
#include "ir/digest.h"
#include "sched/cancellation.h"
#include "sched/session.h"
#include "service/registry.h"
#include "sim/simulator.h"
#include "support/record.h"

namespace aqed::fault {
namespace {

using ir::NodeRef;
using ir::Sort;

constexpr uint64_t kSeed = 0xFA17C0DE;

// Same one-deep toy as sched_test: capture when idle, respond next cycle
// with in + 1 (optionally with a depth-0 early-output bug).
core::AcceleratorInterface BuildToy(ir::TransitionSystem& ts,
                                    bool early_output) {
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  const NodeRef held = core::Reg(ts, "held", 8, 0);
  const NodeRef out_pending = core::Reg(ts, "out_pending", 1, 0);

  const NodeRef in_ready = ctx.Not(out_pending);
  const NodeRef capture = ctx.And(in_valid, in_ready);
  NodeRef out_valid = out_pending;
  if (early_output) out_valid = ctx.Or(out_valid, ctx.Not(out_pending));
  const NodeRef drain = ctx.And(out_valid, host_ready);

  core::LatchWhen(ts, held, capture, in_data);
  ts.SetNext(out_pending, ctx.Ite(capture, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  core::AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = out_valid;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{ctx.Add(held, ctx.Const(8, 1))}};
  return acc;
}

core::AcceleratorBuilder ToyBuilder(bool early_output = false) {
  return [early_output](ir::TransitionSystem& ts) {
    return BuildToy(ts, early_output);
  };
}

core::AcceleratorBuilder MemCtrlBuilder() {
  return [](ir::TransitionSystem& ts) {
    return accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo).acc;
  };
}

// --- mutation engine ---------------------------------------------------------

TEST(MutatorTest, EnumerationIsDeterministicAcrossFreshBuilds) {
  ir::TransitionSystem a, b;
  const auto acc_a = MemCtrlBuilder()(a);
  const auto acc_b = MemCtrlBuilder()(b);
  const auto sites_a = EnumerateMutants(a, acc_a, kSeed);
  const auto sites_b = EnumerateMutants(b, acc_b, kSeed);
  ASSERT_FALSE(sites_a.empty());
  // Byte-identical keys: the hash-consed builders give stable NodeRefs.
  ASSERT_EQ(sites_a.size(), sites_b.size());
  for (size_t i = 0; i < sites_a.size(); ++i) {
    EXPECT_EQ(sites_a[i], sites_b[i]) << i;
    EXPECT_EQ(sites_a[i].seed, kSeed);
  }
}

TEST(MutatorTest, StuckAtSitesAreStates) {
  ir::TransitionSystem ts;
  const auto acc = ToyBuilder()(ts);
  for (const MutantKey& key : EnumerateMutants(ts, acc, kSeed)) {
    if (key.op != MutationOp::kStuckAtZero &&
        key.op != MutationOp::kStuckAtOne) {
      continue;
    }
    const auto& states = ts.states();
    EXPECT_NE(std::find(states.begin(), states.end(), key.node), states.end())
        << key.ToString();
  }
}

TEST(MutatorTest, SamplingIsSeededAndDistinct) {
  ir::TransitionSystem ts;
  const auto acc = MemCtrlBuilder()(ts);
  const auto all = EnumerateMutants(ts, acc, kSeed);
  ASSERT_GT(all.size(), 8u);
  const auto sample = SampleMutants(ts, acc, kSeed, 8);
  ASSERT_EQ(sample.size(), 8u);
  const auto again = SampleMutants(ts, acc, kSeed, 8);
  EXPECT_EQ(sample, again);
  for (size_t i = 0; i < sample.size(); ++i) {
    for (size_t j = i + 1; j < sample.size(); ++j) {
      EXPECT_FALSE(sample[i] == sample[j]) << i << "," << j;
    }
    // Every sampled key is an enumerated site.
    EXPECT_NE(std::find(all.begin(), all.end(), sample[i]), all.end());
  }
  // Oversampling returns every site exactly once.
  EXPECT_EQ(
      SampleMutants(ts, acc, kSeed, static_cast<uint32_t>(all.size()) + 100)
          .size(),
      all.size());
}

TEST(MutatorTest, AppliedMutantsValidateAndRemapTheInterface) {
  ir::TransitionSystem src;
  const auto acc = ToyBuilder()(src);
  const auto sites = EnumerateMutants(src, acc, kSeed);
  ASSERT_FALSE(sites.empty());
  for (const MutantKey& key : sites) {
    ir::TransitionSystem dst;
    const auto map = ApplyMutant(src, key, dst);
    EXPECT_TRUE(dst.Validate().ok()) << key.ToString();
    const auto mutant_acc = RemapInterface(acc, map);
    EXPECT_NE(mutant_acc.in_valid, ir::kNullNode);
    EXPECT_NE(mutant_acc.out_valid, ir::kNullNode);
    ASSERT_EQ(mutant_acc.data_elems.size(), acc.data_elems.size());
  }
}

TEST(MutatorTest, SomeMutantChangesObservableBehavior) {
  ir::TransitionSystem src;
  const auto acc = ToyBuilder()(src);
  size_t observable = 0;
  for (const MutantKey& key : EnumerateMutants(src, acc, kSeed)) {
    ir::TransitionSystem dst;
    const auto mutant_acc = RemapInterface(acc, ApplyMutant(src, key, dst));
    sim::Simulator pristine_sim(src);
    sim::Simulator mutant_sim(dst);
    bool differs = false;
    for (int cycle = 0; cycle < 40 && !differs; ++cycle) {
      const uint64_t valid = cycle % 2;
      const uint64_t data = (cycle * 37) & 0xFF;
      const uint64_t ready = cycle % 3 != 0;
      pristine_sim.SetInput(acc.in_valid, valid);
      pristine_sim.SetInput(acc.data_elems[0][0], data);
      pristine_sim.SetInput(acc.host_ready, ready);
      mutant_sim.SetInput(mutant_acc.in_valid, valid);
      mutant_sim.SetInput(mutant_acc.data_elems[0][0], data);
      mutant_sim.SetInput(mutant_acc.host_ready, ready);
      pristine_sim.Eval();
      mutant_sim.Eval();
      differs =
          pristine_sim.Value(acc.out_valid) !=
              mutant_sim.Value(mutant_acc.out_valid) ||
          pristine_sim.Value(acc.out_elems[0][0]) !=
              mutant_sim.Value(mutant_acc.out_elems[0][0]) ||
          pristine_sim.Value(acc.in_ready) !=
              mutant_sim.Value(mutant_acc.in_ready);
      pristine_sim.Step();
      mutant_sim.Step();
    }
    observable += differs;
  }
  // The engine must inject real defects, not no-ops: most toy mutants are
  // visible on the interface within a short directed run.
  EXPECT_GE(observable, 3u);
}

TEST(MutatorTest, MutantBuilderMatchesApplyMutant) {
  ir::TransitionSystem src;
  const auto acc = ToyBuilder()(src);
  const auto sites = SampleMutants(src, acc, kSeed, 3);
  ASSERT_FALSE(sites.empty());
  for (const MutantKey& key : sites) {
    ir::TransitionSystem via_apply, via_builder;
    ApplyMutant(src, key, via_apply);
    const auto built_acc = MutantBuilder(ToyBuilder(), key)(via_builder);
    EXPECT_TRUE(via_builder.Validate().ok());
    EXPECT_EQ(via_apply.states().size(), via_builder.states().size());
    EXPECT_NE(built_acc.out_valid, ir::kNullNode);
  }
}

// Folds a rebuilt system and its interface into `hash`: the BTOR2 text
// pins node order, folding and names; the structural digest adds outputs.
uint64_t MixRebuild(uint64_t hash, const ir::TransitionSystem& ts,
                    const core::AcceleratorInterface& acc) {
  hash = support::MixText(hash, ir::ToBtor2(ts));
  hash = support::MixInt(hash, ir::StructuralDigest(ts));
  for (NodeRef ref : {acc.in_valid, acc.in_ready, acc.host_ready,
                      acc.out_valid, acc.progress_qualifier}) {
    hash = support::MixInt(hash, ref);
  }
  for (const auto& elems : {acc.data_elems, acc.out_elems}) {
    for (const auto& elem : elems) {
      for (NodeRef word : elem) hash = support::MixInt(hash, word);
    }
  }
  for (NodeRef ref : acc.shared_context) hash = support::MixInt(hash, ref);
  return hash;
}

TEST(MutatorTest, RebuiltMutantsArePinned) {
  // A fixed sample on three catalog designs plus the first site of every
  // operator per design: any rebuild that moves one node changes the hash.
  const auto designs = service::BuiltinDesigns({.with_aes = false});
  uint64_t hash = support::kFnvOffset;
  std::set<MutationOp> covered;
  size_t mutants = 0;
  for (const char* name : {"alu", "dataflow", "memctrl-fifo"}) {
    const DesignUnderTest* dut = service::FindDesign(designs, name);
    ASSERT_NE(dut, nullptr) << name;
    ir::TransitionSystem pristine;
    const auto acc = dut->build(pristine);
    std::vector<MutantKey> keys = SampleMutants(pristine, acc, kSeed, 12);
    std::set<MutationOp> first;
    for (const MutantKey& key : EnumerateMutants(pristine, acc, kSeed)) {
      if (first.insert(key.op).second) keys.push_back(key);
    }
    for (const MutantKey& key : keys) {
      ir::TransitionSystem mutant;
      const auto mutant_acc = MutantBuilder(dut->build, key)(mutant);
      hash = MixRebuild(hash, mutant, mutant_acc);
      covered.insert(key.op);
      ++mutants;
    }
  }
  EXPECT_EQ(covered.size(), 6u);
  EXPECT_EQ(mutants, 53u);
  EXPECT_EQ(hash, 0xd1fd26041406da20ull);
}

// --- UNKNOWN reason codes ----------------------------------------------------

TEST(UnknownReasonTest, PreCancelledBmcReportsCancelled) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(8), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(8, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(8, 200)), "deep");

  sched::CancellationSource source;
  source.Cancel();
  bmc::BmcOptions options;
  options.max_bound = 50;
  options.cancel = source.token();
  const bmc::BmcResult result = bmc::RunBmc(ts, options);
  EXPECT_EQ(result.outcome, bmc::BmcResult::Outcome::kUnknown);
  EXPECT_EQ(result.unknown_reason, UnknownReason::kCancelled);
}

TEST(UnknownReasonTest, ConflictBudgetExhaustionIsReported) {
  core::AqedOptions options;
  options.bmc.max_bound = 8;
  options.bmc.conflict_budget = 1;
  const auto result = core::CheckAccelerator(MemCtrlBuilder(), options);
  ASSERT_FALSE(result.bug_found(0));
  EXPECT_EQ(result.unknown_reason(0), UnknownReason::kConflictBudget);
  EXPECT_EQ(result.num_unknown(), 1u);
  EXPECT_EQ(result.jobs[0].result.bmc.unknown_reason,
            UnknownReason::kConflictBudget);
  EXPECT_GE(result.stats.num_unknown(UnknownReason::kConflictBudget), 1u);
  EXPECT_EQ(result.stats.num_unknown(UnknownReason::kDeadline), 0u);
}

TEST(UnknownReasonTest, SessionDeadlineReportsDeadline) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  session_options.deadline_ms = 1;  // trips long before bound 14 refutes
  sched::VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 14;
  session.Enqueue(MemCtrlBuilder(), options, "starved");
  const auto result = session.Wait();
  ASSERT_FALSE(result.bug_found(0));
  EXPECT_EQ(result.unknown_reason(0), UnknownReason::kDeadline);
  // A deadline expiry is a timeout, not a first-bug-wins cancellation.
  EXPECT_FALSE(result.jobs[0].cancelled);
  EXPECT_EQ(result.stats.num_cancelled(), 0u);
  EXPECT_GE(result.stats.num_unknown(UnknownReason::kDeadline), 1u);
}

// The ISSUE's UNKNOWN-propagation regression: a session with one
// budget-starved job still finishes, reports that job kUnknown with the
// right reason, and the other entries' verdicts are identical to an
// unbudgeted run.
TEST(UnknownReasonTest, StarvedJobDoesNotPerturbSiblingVerdicts) {
  const auto run = [](int64_t budget_entry0) {
    core::SessionOptions session_options;
    session_options.jobs = 2;
    session_options.cancel = core::SessionOptions::CancelPolicy::kNone;
    sched::VerificationSession session(session_options);
    core::AqedOptions starved;
    starved.bmc.max_bound = 8;
    starved.bmc.conflict_budget = budget_entry0;
    session.Enqueue(MemCtrlBuilder(), starved, "memctrl");
    core::AqedOptions toy;
    toy.bmc.max_bound = 6;
    session.Enqueue(ToyBuilder(/*early_output=*/true), toy, "toy");
    return session.Wait();
  };
  const auto starved = run(1);
  const auto unbudgeted = run(-1);

  EXPECT_EQ(starved.unknown_reason(0), UnknownReason::kConflictBudget);
  EXPECT_GE(starved.num_unknown(), 1u);
  EXPECT_EQ(unbudgeted.num_unknown(), 0u);
  // Entry 1's verdict is untouched by its sibling's starvation.
  ASSERT_TRUE(starved.bug_found(1));
  EXPECT_EQ(starved.bug_found(1), unbudgeted.bug_found(1));
  EXPECT_EQ(starved.kind(1), unbudgeted.kind(1));
  EXPECT_EQ(starved.cex_cycles(1), unbudgeted.cex_cycles(1));
}

// --- escalating-budget retries ----------------------------------------------

TEST(RetryTest, EscalationDecidesAStarvedJob) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  session_options.retry.max_retries = 16;  // budget 1 -> 64k: plenty
  sched::VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  options.bmc.conflict_budget = 1;
  session.Enqueue(MemCtrlBuilder(), options, "memctrl");
  const auto result = session.Wait();
  // The final attempt refutes cleanly where attempt 0 ran out of budget.
  EXPECT_FALSE(result.bug_found(0));
  EXPECT_EQ(result.unknown_reason(0), UnknownReason::kNone);
  EXPECT_EQ(result.num_unknown(), 0u);
  EXPECT_GT(result.jobs[0].attempt, 0u);
  // One stats row per executed attempt, retries accounted separately.
  EXPECT_GE(result.stats.num_retries(), 1u);
  EXPECT_EQ(result.stats.num_jobs(),
            static_cast<size_t>(result.jobs[0].attempt) + 1);
}

TEST(RetryTest, BudgetCapStopsEscalation) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  session_options.retry.max_retries = 16;
  session_options.retry.max_conflict_budget = 2;
  sched::VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 8;
  options.bmc.conflict_budget = 1;
  session.Enqueue(MemCtrlBuilder(), options, "memctrl");
  const auto result = session.Wait();
  // 1 -> 2 (cap) and then nothing grows: exactly one retry, still unknown.
  EXPECT_EQ(result.unknown_reason(0), UnknownReason::kConflictBudget);
  EXPECT_EQ(result.jobs[0].attempt, 1u);
  EXPECT_EQ(result.stats.num_retries(), 1u);
  EXPECT_EQ(result.stats.num_jobs(), 2u);
}

// Pins the stats-accumulation contract across the escalation ladder: each
// JobStat row carries only its own attempt's solver effort (a fresh Solver
// runs per attempt), and the final JobResult holds the last attempt alone —
// never a running sum over retried attempts.
TEST(RetryTest, AttemptRowsCarryPerAttemptEffortNotCumulative) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  session_options.retry.max_retries = 16;
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  options.bmc.conflict_budget = 1;

  sched::VerificationSession session(session_options);
  session.Enqueue(MemCtrlBuilder(), options, "memctrl");
  const auto result = session.Wait();
  const uint32_t attempts = result.jobs[0].attempt + 1;
  ASSERT_GT(attempts, 1u);  // budget 1 must escalate at least once
  const auto& rows = result.stats.jobs();
  ASSERT_EQ(rows.size(), attempts);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].attempt, i);
    if (i + 1 < rows.size()) {
      EXPECT_EQ(rows[i].unknown_reason, UnknownReason::kConflictBudget);
    }
  }
  EXPECT_EQ(rows.back().unknown_reason, UnknownReason::kNone);
  // The result slot is the last attempt's row, not an accumulation.
  EXPECT_EQ(result.jobs[0].result.bmc.conflicts, rows.back().conflicts);

  // The decisive pin: a fresh run given the final attempt's budget up front
  // reproduces that attempt's conflict count exactly (the solver is
  // deterministic at --jobs 1). Any cross-attempt accumulation would make
  // the retried row strictly larger.
  core::AqedOptions direct = options;
  direct.bmc.conflict_budget = options.bmc.conflict_budget
                               << (attempts - 1);
  core::SessionOptions no_retry;
  no_retry.jobs = 1;
  sched::VerificationSession fresh(no_retry);
  fresh.Enqueue(MemCtrlBuilder(), direct, "memctrl");
  const auto direct_result = fresh.Wait();
  EXPECT_FALSE(direct_result.bug_found(0));
  EXPECT_EQ(direct_result.jobs[0].result.bmc.conflicts,
            rows.back().conflicts);
}

TEST(RetryTest, DecidedJobsAreNeverRetried) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  session_options.retry.max_retries = 4;
  sched::VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  session.Enqueue(ToyBuilder(/*early_output=*/true), options, "buggy");
  session.Enqueue(ToyBuilder(), options, "clean");
  const auto result = session.Wait();
  EXPECT_TRUE(result.bug_found(0));
  EXPECT_FALSE(result.bug_found(1));
  EXPECT_EQ(result.stats.num_retries(), 0u);
  for (const auto& job : result.jobs) EXPECT_EQ(job.attempt, 0u);
}

// --- campaign determinism ----------------------------------------------------

FaultCampaignOptions SmallCampaign(uint32_t jobs) {
  FaultCampaignOptions options;
  options.seed = kSeed;
  options.num_mutants = 10;
  options.session.jobs = jobs;
  options.session.retry.max_retries = 2;
  return options;
}

std::vector<DesignUnderTest> SmallDesigns() {
  std::vector<DesignUnderTest> designs;
  core::AqedOptions toy_options;
  toy_options.bmc.max_bound = 6;
  designs.push_back({"toy", ToyBuilder(), toy_options, nullptr, {}});
  core::RbOptions rb;
  rb.tau = accel::DataflowResponseBound();
  rb.rdin_bound = accel::DataflowRdinBound();
  const auto dataflow_options = core::AqedOptions::Builder()
                                    .WithRb(rb)
                                    .WithFcBound(6)
                                    .WithRbBound(16)
                                    .Build();
  designs.push_back({"dataflow",
                     [](ir::TransitionSystem& ts) {
                       return accel::BuildDataflow(ts, {}).acc;
                     },
                     dataflow_options, nullptr, {}});
  return designs;
}

// The ISSUE's determinism regression: the same seed yields byte-identical
// mutant sets and identical classifications at --jobs 1 and --jobs 8.
TEST(FaultCampaignTest, ClassificationsAreIdenticalAcrossWorkerCounts) {
  const auto designs = SmallDesigns();
  const auto serial = RunFaultCampaign(designs, SmallCampaign(1));
  const auto parallel = RunFaultCampaign(designs, SmallCampaign(8));

  ASSERT_EQ(serial.mutants.size(), 10u);
  ASSERT_EQ(parallel.mutants.size(), serial.mutants.size());
  for (size_t i = 0; i < serial.mutants.size(); ++i) {
    EXPECT_EQ(serial.mutants[i].design, parallel.mutants[i].design) << i;
    EXPECT_TRUE(serial.mutants[i].key == parallel.mutants[i].key) << i;
    EXPECT_EQ(serial.mutants[i].classification,
              parallel.mutants[i].classification)
        << i << ": " << serial.mutants[i].key.ToString();
    EXPECT_EQ(serial.mutants[i].cex_cycles, parallel.mutants[i].cex_cycles)
        << i;
  }
  EXPECT_EQ(serial.ClassificationDigest(), parallel.ClassificationDigest());
  // Recorded value: the digest's bytes must survive refactors of its hash.
  EXPECT_EQ(serial.ClassificationDigest(), 0x1b2d9cd35c1cee07ull);
  // The engine injects real bugs: a healthy share of mutants is detected,
  // and with unbounded budgets nothing is left unknown.
  EXPECT_GE(serial.num_detected(), 3u);
  EXPECT_EQ(serial.count(Classification::kUnknown), 0u);
  EXPECT_DOUBLE_EQ(serial.classified_fraction(), 1.0);
  EXPECT_FALSE(serial.ToTable().empty());
}

// The precedence rounds run FC for every mutant, RB for those FC did not
// detect and SAC for those neither detected. Seed 5 samples 10 ALU mutants
// that FC, RB and SAC each detect, plus one that survives.
std::vector<DesignUnderTest> AluDesign() {
  service::CatalogOptions catalog;
  catalog.with_aes = false;
  return {*service::FindDesign(service::BuiltinDesigns(catalog), "alu")};
}

FaultCampaignOptions AluCampaign(uint32_t jobs) {
  FaultCampaignOptions options;
  options.seed = 5;
  options.num_mutants = 10;
  options.session.jobs = jobs;
  return options;
}

// Every property job of every mutant in one all-jobs session, each
// mutant's jobs folded by ClassifyEntry.
std::vector<EntryVerdict> FoldEveryJob(const DesignUnderTest& dut,
                                       const std::vector<MutantReport>& mutants,
                                       core::SessionOptions session_options) {
  session_options.cancel = core::SessionOptions::CancelPolicy::kNone;
  sched::VerificationSession session(session_options);
  std::vector<core::JobHandle> handles;
  for (const MutantReport& mutant : mutants) {
    handles.push_back(
        session.Enqueue(MutantBuilder(dut.build, mutant.key), dut.options));
  }
  const core::SessionResult result = session.Wait();
  std::vector<EntryVerdict> folded;
  for (const core::JobHandle& handle : handles) {
    folded.push_back(ClassifyEntry(result, handle.index()));
  }
  return folded;
}

// The stats rows of one mutant's jobs (every attempt), in run order.
std::vector<JobStat> RowsOf(const FaultCampaignResult& result,
                            const MutantReport& mutant) {
  const std::string prefix = mutant.design + "/" + mutant.key.ToString() + "/";
  std::vector<JobStat> rows;
  for (const JobStat& row : result.stats.jobs()) {
    if (row.label.rfind(prefix, 0) == 0) rows.push_back(row);
  }
  return rows;
}

TEST(FaultCampaignTest, PrecedenceRoundsFoldLikeEveryJobAndStopAtDetection) {
  const auto designs = AluDesign();
  const FaultCampaignResult serial =
      RunFaultCampaign(designs, AluCampaign(1));
  ASSERT_EQ(serial.mutants.size(), 10u);
  for (const Classification c :
       {Classification::kDetectedFc, Classification::kDetectedRb,
        Classification::kDetectedSac, Classification::kSurvived}) {
    EXPECT_GE(serial.count(c), 1u) << ClassificationName(c);
  }

  const std::vector<EntryVerdict> reference =
      FoldEveryJob(designs[0], serial.mutants, {});
  size_t expected_jobs = 0;
  for (size_t i = 0; i < serial.mutants.size(); ++i) {
    const MutantReport& mutant = serial.mutants[i];
    const EntryVerdict& folded = reference[i];
    const std::string key = mutant.key.ToString();
    EXPECT_EQ(mutant.classification, folded.classification) << key;
    EXPECT_EQ(mutant.kind, folded.kind) << key;
    EXPECT_EQ(mutant.cex_cycles, folded.cex_cycles) << key;
    EXPECT_EQ(mutant.attempts, folded.attempts) << key;
    EXPECT_EQ(mutant.unknown_reason, folded.unknown_reason) << key;

    // The jobs this mutant ran: FC, then RB, then SAC, up to its first
    // detection.
    std::vector<std::string> expected = {"FC", "RB", "SAC"};
    if (mutant.classification == Classification::kDetectedFc) {
      expected.resize(1);
    } else if (mutant.classification == Classification::kDetectedRb) {
      expected.resize(2);
    }
    expected_jobs += expected.size();
    const std::string prefix = "alu/" + key + "/";
    std::vector<std::string> ran;
    for (const JobStat& row : RowsOf(serial, mutant)) {
      ran.push_back(row.label.substr(prefix.size()));
    }
    EXPECT_EQ(ran, expected) << key;
  }
  EXPECT_EQ(serial.stats.num_jobs(), expected_jobs);
  EXPECT_LT(serial.stats.num_jobs(), 3 * serial.mutants.size());

  // With retries, attempts is the max over the jobs a mutant ran. A
  // conflict budget of 200 starves some jobs into a retry; the retries a
  // skipped RB or SAC job would have needed no longer count, so attempts
  // can fall below the all-jobs fold's, while classification, kind and
  // cex_cycles still match it.
  std::vector<DesignUnderTest> starved = designs;
  starved[0].options.bmc.conflict_budget = 200;
  FaultCampaignOptions retried = AluCampaign(1);
  retried.session.retry.max_retries = 1;
  const FaultCampaignResult rounds = RunFaultCampaign(starved, retried);
  ASSERT_EQ(rounds.mutants.size(), serial.mutants.size());
  const std::vector<EntryVerdict> all_jobs =
      FoldEveryJob(starved[0], rounds.mutants, retried.session);
  size_t fewer_attempts = 0;
  for (size_t i = 0; i < rounds.mutants.size(); ++i) {
    const MutantReport& mutant = rounds.mutants[i];
    const std::string key = mutant.key.ToString();
    EXPECT_EQ(mutant.classification, all_jobs[i].classification) << key;
    EXPECT_EQ(mutant.kind, all_jobs[i].kind) << key;
    EXPECT_EQ(mutant.cex_cycles, all_jobs[i].cex_cycles) << key;
    uint32_t ran_attempts = 1;
    for (const JobStat& row : RowsOf(rounds, mutant)) {
      ran_attempts = std::max(ran_attempts, row.attempt + 1);
    }
    EXPECT_EQ(mutant.attempts, ran_attempts) << key;
    EXPECT_LE(mutant.attempts, all_jobs[i].attempts) << key;
    if (mutant.attempts < all_jobs[i].attempts) ++fewer_attempts;
  }
  EXPECT_GE(rounds.stats.num_retries(), 1u);
  EXPECT_GE(fewer_attempts, 1u);

  // The work done does not depend on the worker count or on batching: a
  // journaled campaign verifies 8 mutants per batch, so 10 take two.
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("aqed_fault_rounds_" + std::to_string(::getpid())))
          .string();
  FaultCampaignOptions journaled = AluCampaign(1);
  journaled.journal_path = journal;
  for (const FaultCampaignResult& other :
       {RunFaultCampaign(designs, AluCampaign(2)),
        RunFaultCampaign(designs, journaled)}) {
    ASSERT_EQ(other.mutants.size(), serial.mutants.size());
    EXPECT_EQ(other.stats.num_jobs(), serial.stats.num_jobs());
    for (size_t i = 0; i < serial.mutants.size(); ++i) {
      const MutantReport& a = serial.mutants[i];
      const MutantReport& b = other.mutants[i];
      EXPECT_TRUE(a.key == b.key) << i;
      EXPECT_EQ(a.classification, b.classification) << i;
      EXPECT_EQ(a.kind, b.kind) << i;
      EXPECT_EQ(a.cex_cycles, b.cex_cycles) << i;
      EXPECT_EQ(a.attempts, b.attempts) << i;
      EXPECT_EQ(a.unknown_reason, b.unknown_reason) << i;
    }
  }
  std::remove(journal.c_str());
  std::remove((journal + ".tmp").c_str());
}

}  // namespace
}  // namespace aqed::fault
