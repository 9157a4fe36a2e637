// Durability and graceful-degradation tests: the CRC-guarded write-ahead
// result journal (encode/decode, torn-tail and corrupt-record replay,
// interrupted-then-resumed campaigns reproducing the uninterrupted digest
// bit-for-bit at --jobs 1 and --jobs 8), the failure-point chaos harness
// that drives those interruptions, durable file writes, the memory
// governor's pressure ladder, and the solver's shed-under-pressure path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "accel/dataflow.h"
#include "aqed/checker.h"
#include "aqed/monitor_util.h"
#include "fault/campaign.h"
#include "fault/journal.h"
#include "sat/solver.h"
#include "sched/memory_pressure.h"
#include "sched/session.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "telemetry/export.h"
#include "telemetry/resource.h"

namespace aqed::fault {
namespace {

using ir::NodeRef;
using ir::Sort;
using support::FailpointAction;
using support::FailpointError;
using support::FailpointTrigger;
namespace failpoint = support::failpoint;

// RAII temp file path (the file itself may or may not be created).
class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("aqed_durable_" + stem + "_" +
              std::to_string(::getpid())))
                .string();
    std::remove(path_.c_str());
  }
  ~TempPath() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

MutantReport SampleReport() {
  MutantReport report;
  report.design = "memctrl-\"fifo\"\n";  // exercise JSON escaping
  report.key = {MutationOp::kOperatorSwap, 42, 0xA9EDull};
  report.classification = Classification::kDetectedRb;
  report.kind = core::BugKind::kResponseBound;
  report.cex_cycles = 9;
  report.attempts = 3;
  report.unknown_reason = UnknownReason::kNone;
  report.wall_seconds = 0.125;
  report.golden_ran = true;
  report.golden_detected = true;
  report.golden_cycles = 77;
  report.golden_seconds = 2.5;
  return report;
}

// --- durable file I/O --------------------------------------------------------

TEST(DurableIoTest, WriteFileDurableRoundTripsAndLeavesNoTmp) {
  TempPath path("io");
  ASSERT_TRUE(support::WriteFileDurable(path.str(), "hello\njournal\n").ok());
  const auto read = support::ReadFileToString(path.str());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "hello\njournal\n");
  EXPECT_FALSE(std::filesystem::exists(path.str() + ".tmp"));
}

TEST(DurableIoTest, ReadFileToStringReportsMissingFile) {
  EXPECT_FALSE(support::ReadFileToString("/nonexistent/aqed/file").ok());
}

// --- CRC and record codec ----------------------------------------------------

TEST(JournalTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(support::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(support::Crc32(""), 0u);
}

TEST(JournalTest, RecordRoundTripsAllFields) {
  const MutantReport report = SampleReport();
  const std::string line = EncodeJournalRecord(report);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  const auto decoded =
      DecodeJournalRecord(std::string_view(line).substr(0, line.size() - 1));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->design, report.design);
  EXPECT_TRUE(decoded->key == report.key);
  EXPECT_EQ(decoded->classification, report.classification);
  EXPECT_EQ(decoded->kind, report.kind);
  EXPECT_EQ(decoded->cex_cycles, report.cex_cycles);
  EXPECT_EQ(decoded->attempts, report.attempts);
  EXPECT_EQ(decoded->unknown_reason, report.unknown_reason);
  EXPECT_DOUBLE_EQ(decoded->wall_seconds, report.wall_seconds);
  EXPECT_EQ(decoded->golden_ran, report.golden_ran);
  EXPECT_EQ(decoded->golden_detected, report.golden_detected);
  EXPECT_EQ(decoded->golden_cycles, report.golden_cycles);
  EXPECT_DOUBLE_EQ(decoded->golden_seconds, report.golden_seconds);
}

TEST(JournalTest, CorruptedPayloadFailsCrc) {
  std::string line = EncodeJournalRecord(SampleReport());
  line.pop_back();  // strip '\n'
  // Flip one payload character: the CRC must catch it.
  const size_t pos = line.find("\"node\":42");
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = line;
  corrupt[pos + 8] = '3';
  EXPECT_FALSE(DecodeJournalRecord(corrupt).has_value());
  // Truncation (a torn write) is also rejected.
  EXPECT_FALSE(
      DecodeJournalRecord(std::string_view(line).substr(0, line.size() / 2))
          .has_value());
  // The pristine line still decodes.
  EXPECT_TRUE(DecodeJournalRecord(line).has_value());
}

// SampleReport with provenance, exactly as the previous release's
// EncodeJournalRecord wrote it (its own key order; the current encoder sorts
// the keys, and old files must still replay).
constexpr std::string_view kParentJournalLine =
    R"({"crc":"cfe1911d","data":{"design":"memctrl-\"fifo\"\n",)"
    R"("op":"op-swap","node":42,"seed":43501,)"
    R"("classification":"detected-by-RB","kind":"RB","cex_cycles":9,)"
    R"("attempts":3,"trace_id":"00c0ffee12345678","unknown_reason":"none",)"
    R"("wall_seconds":0.125,"golden_ran":true,"golden_detected":true,)"
    R"("golden_cycles":77,"golden_seconds":2.5}})";

TEST(JournalTest, RecordsWrittenByThePreviousFormatStillDecode) {
  const auto decoded = DecodeJournalRecord(kParentJournalLine);
  ASSERT_TRUE(decoded.has_value());
  const MutantReport expected = SampleReport();
  EXPECT_EQ(decoded->design, expected.design);
  EXPECT_TRUE(decoded->key == expected.key);
  EXPECT_EQ(decoded->classification, expected.classification);
  EXPECT_EQ(decoded->kind, expected.kind);
  EXPECT_EQ(decoded->cex_cycles, expected.cex_cycles);
  EXPECT_EQ(decoded->attempts, expected.attempts);
  EXPECT_EQ(decoded->trace_id, 0x00c0ffee12345678u);
  EXPECT_EQ(decoded->unknown_reason, expected.unknown_reason);
  EXPECT_EQ(decoded->wall_seconds, expected.wall_seconds);
  EXPECT_EQ(decoded->golden_ran, expected.golden_ran);
  EXPECT_EQ(decoded->golden_detected, expected.golden_detected);
  EXPECT_EQ(decoded->golden_cycles, expected.golden_cycles);
  EXPECT_EQ(decoded->golden_seconds, expected.golden_seconds);

  // A journal the previous release started and this one resumes: both
  // records replay, nothing is skipped or truncated.
  TempPath path("parent");
  MutantReport next = SampleReport();
  next.key.node = 7;
  const std::string contents =
      std::string(kParentJournalLine) + "\n" + EncodeJournalRecord(next);
  ASSERT_TRUE(support::WriteFileDurable(path.str(), contents).ok());
  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().skipped_records, 0u);
  EXPECT_EQ(replay.value().valid_bytes, contents.size());
  EXPECT_EQ(replay.value().records[0].trace_id, 0x00c0ffee12345678u);
  EXPECT_EQ(replay.value().records[1].key.node, 7u);
}

TEST(JournalTest, Uint64FieldsRoundTripAboveInt64) {
  MutantReport report = SampleReport();
  report.key.seed = 0xFFFF'FFFF'FFFF'FFF7ull;
  report.golden_cycles = UINT64_MAX;
  std::string line = EncodeJournalRecord(report);
  line.pop_back();
  const auto decoded = DecodeJournalRecord(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key.seed, report.key.seed);
  EXPECT_EQ(decoded->golden_cycles, UINT64_MAX);
}

TEST(JournalTest, OutOfRangeFieldsAreRejectedNotTruncated) {
  std::string line = EncodeJournalRecord(SampleReport());
  line.pop_back();
  const std::string payload(*support::OpenRecord(line));
  // Each edit is re-sealed, so only the field check can refuse it.
  for (const auto& [from, to] :
       {std::pair{"\"node\":42", "\"node\":4294967338"},
        {"\"node\":42", "\"node\":-42"},
        {"\"cex_cycles\":9", "\"cex_cycles\":4294967305"},
        {"\"attempts\":3", "\"attempts\":1e300"},
        {"\"seed\":43501", "\"seed\":1e300"},
        {"\"seed\":43501", "\"seed\":435.01"},
        {"\"golden_cycles\":77", "\"golden_cycles\":18446744073709551616"},
        {"\"golden_ran\":true", "\"golden_ran\":1"}}) {
    std::string edited = payload;
    const size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    edited.replace(at, std::string_view(from).size(), to);
    std::string sealed = support::SealRecord(edited);
    sealed.pop_back();
    EXPECT_FALSE(DecodeJournalRecord(sealed).has_value()) << to;
  }
}

// --- replay ------------------------------------------------------------------

TEST(JournalTest, ReplayOfMissingFileIsEmpty) {
  const auto replay = ReplayJournal("/nonexistent/aqed/journal.jsonl");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().valid_bytes, 0u);
  EXPECT_FALSE(replay.value().torn_tail);
}

TEST(JournalTest, ReplaySkipsCorruptMidFileRecordAndCounts) {
  TempPath path("midcorrupt");
  MutantReport a = SampleReport();
  MutantReport b = SampleReport();
  b.key.node = 7;
  std::string contents = EncodeJournalRecord(a);
  std::string bad = EncodeJournalRecord(SampleReport());
  bad[bad.size() / 2] ^= 1;  // corrupt a complete mid-file line
  contents += bad;
  contents += EncodeJournalRecord(b);
  ASSERT_TRUE(support::WriteFileDurable(path.str(), contents).ok());

  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 2u);
  EXPECT_EQ(replay.value().skipped_records, 1u);
  EXPECT_FALSE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().records[1].key.node, 7u);
  // The decodable prefix runs to end-of-file (the corrupt line is complete,
  // so later records after it are still appendable-after).
  EXPECT_EQ(replay.value().valid_bytes, contents.size());
}

TEST(JournalTest, ReplayTruncatesTornTailAndOpenDropsIt) {
  TempPath path("torn");
  const std::string good = EncodeJournalRecord(SampleReport());
  std::string torn = EncodeJournalRecord(SampleReport());
  torn.resize(torn.size() / 2);  // kill -9 mid-append
  ASSERT_TRUE(support::WriteFileDurable(path.str(), good + torn).ok());

  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 1u);
  EXPECT_TRUE(replay.value().torn_tail);
  EXPECT_EQ(replay.value().valid_bytes, good.size());

  // Re-opening at valid_bytes truncates the torn bytes; a fresh append
  // lands on a clean boundary and the file replays fully.
  ResultJournal journal;
  ASSERT_TRUE(journal.Open(path.str(), replay.value().valid_bytes).ok());
  MutantReport next = SampleReport();
  next.key.seed = 0xFEED;
  ASSERT_TRUE(journal.Append(next).ok());
  journal.Close();
  const auto replay2 = ReplayJournal(path.str());
  ASSERT_TRUE(replay2.ok());
  EXPECT_EQ(replay2.value().records.size(), 2u);
  EXPECT_FALSE(replay2.value().torn_tail);
  EXPECT_EQ(replay2.value().records[1].key.seed, 0xFEEDull);
}

TEST(JournalTest, WriteJournalFileCompacts) {
  TempPath path("compact");
  std::vector<MutantReport> reports(3, SampleReport());
  reports[1].key.node = 1;
  reports[2].key.node = 2;
  ASSERT_TRUE(WriteJournalFile(path.str(), reports).ok());
  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 3u);
  EXPECT_EQ(replay.value().records[2].key.node, 2u);
}

// --- failpoints --------------------------------------------------------------

#if !AQED_FAILPOINTS_ENABLED

// -DAQED_FAILPOINTS=OFF compiles every site down to (false) and the arming
// API down to inert stubs; the spec parser reports why arming cannot work.
TEST(FailpointTest, CompiledOutSitesAreInert) {
  failpoint::Arm("durable.test.site", {FailpointAction::kThrow});
  EXPECT_FALSE(AQED_FAILPOINT("durable.test.site"));
  EXPECT_EQ(failpoint::HitCount("durable.test.site"), 0u);
  EXPECT_FALSE(failpoint::ArmFromSpec("durable.test.site=throw").ok());
  EXPECT_TRUE(failpoint::Armed().empty());
}

#else  // AQED_FAILPOINTS_ENABLED

TEST(FailpointTest, UnarmedSiteIsFalseAndCountsNothing) {
  failpoint::DisarmAll();
  EXPECT_FALSE(AQED_FAILPOINT("durable.test.site"));
  EXPECT_EQ(failpoint::HitCount("durable.test.site"), 0u);
}

TEST(FailpointTest, SkipAndLimitCountHits) {
  failpoint::DisarmAll();
  // Fire on the 3rd hit only (skip 2, limit 1), error action.
  failpoint::Arm("durable.test.site",
                 {FailpointAction::kReturnError, /*skip=*/2, /*limit=*/1});
  EXPECT_FALSE(AQED_FAILPOINT("durable.test.site"));
  EXPECT_FALSE(AQED_FAILPOINT("durable.test.site"));
  EXPECT_TRUE(AQED_FAILPOINT("durable.test.site"));
  EXPECT_FALSE(AQED_FAILPOINT("durable.test.site"));  // limit exhausted
  EXPECT_EQ(failpoint::HitCount("durable.test.site"), 4u);
  EXPECT_EQ(failpoint::FireCount("durable.test.site"), 1u);
  failpoint::DisarmAll();
}

TEST(FailpointTest, ThrowActionCarriesSiteName) {
  failpoint::DisarmAll();
  failpoint::Arm("durable.test.throw", {FailpointAction::kThrow});
  try {
    (void)AQED_FAILPOINT("durable.test.throw");
    FAIL() << "failpoint did not throw";
  } catch (const FailpointError& error) {
    EXPECT_EQ(error.name(), "durable.test.throw");
  }
  failpoint::DisarmAll();
}

TEST(FailpointTest, SpecGrammarParses) {
  failpoint::DisarmAll();
  ASSERT_TRUE(
      failpoint::ArmFromSpec("a.site=throw@6,b.site=error,c.site=delay:1")
          .ok());
  EXPECT_EQ(failpoint::Armed(),
            (std::vector<std::string>{"a.site", "b.site", "c.site"}));
  // b.site fires immediately with the error action.
  EXPECT_TRUE(AQED_FAILPOINT("b.site"));
  // a.site=throw@6 passes five hits through, then throws.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(AQED_FAILPOINT("a.site"));
  EXPECT_THROW((void)AQED_FAILPOINT("a.site"), FailpointError);
  EXPECT_FALSE(failpoint::ArmFromSpec("bogus").ok());
  EXPECT_FALSE(failpoint::ArmFromSpec("x=frobnicate").ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::Armed().empty());
}

// --- telemetry export failure path ------------------------------------------

TEST(FailpointTest, TelemetryExportSiteTakesErrorPath) {
  TempPath path("trace");
  failpoint::DisarmAll();
  failpoint::Arm("telemetry.export", {FailpointAction::kReturnError});
  EXPECT_FALSE(telemetry::WriteChromeTraceFile(path.str(), {}));
  EXPECT_FALSE(std::filesystem::exists(path.str()));
  failpoint::DisarmAll();
  EXPECT_TRUE(telemetry::WriteChromeTraceFile(path.str(), {}));
  EXPECT_TRUE(std::filesystem::exists(path.str()));
  EXPECT_FALSE(std::filesystem::exists(path.str() + ".tmp"));
}

#endif  // AQED_FAILPOINTS_ENABLED

// --- journaled campaigns -----------------------------------------------------

// Same one-deep toy as fault_test: capture when idle, respond next cycle
// with in + 1.
core::AcceleratorInterface BuildToy(ir::TransitionSystem& ts) {
  auto& ctx = ts.ctx();
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  const NodeRef held = core::Reg(ts, "held", 8, 0);
  const NodeRef out_pending = core::Reg(ts, "out_pending", 1, 0);

  const NodeRef in_ready = ctx.Not(out_pending);
  const NodeRef capture = ctx.And(in_valid, in_ready);
  const NodeRef drain = ctx.And(out_pending, host_ready);

  core::LatchWhen(ts, held, capture, in_data);
  ts.SetNext(out_pending, ctx.Ite(capture, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  core::AcceleratorInterface acc;
  acc.in_valid = in_valid;
  acc.in_ready = in_ready;
  acc.host_ready = host_ready;
  acc.out_valid = out_pending;
  acc.data_elems = {{in_data}};
  acc.out_elems = {{ctx.Add(held, ctx.Const(8, 1))}};
  return acc;
}

std::vector<DesignUnderTest> JournalDesigns() {
  std::vector<DesignUnderTest> designs;
  core::AqedOptions toy_options;
  toy_options.bmc.max_bound = 6;
  designs.push_back({"toy",
                     [](ir::TransitionSystem& ts) { return BuildToy(ts); },
                     toy_options, nullptr, {}});
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

FaultCampaignOptions JournalCampaign(uint32_t jobs, const std::string& path,
                                     bool resume) {
  FaultCampaignOptions options;
  options.seed = 0xD0A8EDull;
  options.num_mutants = 10;
  options.session.jobs = jobs;
  options.session.retry.max_retries = 2;
  options.journal_path = path;
  options.resume = resume;
  return options;
}

TEST(DurableCampaignTest, JournaledRunMatchesPlainAndNoOpResumeSkipsAll) {
  const auto designs = JournalDesigns();
  FaultCampaignOptions plain = JournalCampaign(1, "", false);
  const auto baseline = RunFaultCampaign(designs, plain);
  ASSERT_EQ(baseline.mutants.size(), 10u);

  TempPath path("noop");
  const auto journaled =
      RunFaultCampaign(designs, JournalCampaign(1, path.str(), false));
  EXPECT_EQ(journaled.ClassificationDigest(),
            baseline.ClassificationDigest());
  EXPECT_EQ(journaled.resumed, 0u);
  // The finished journal is complete and replayable.
  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 10u);
  EXPECT_FALSE(replay.value().torn_tail);

  // Resuming a finished campaign re-verifies nothing and reproduces the
  // digest exactly.
  const auto resumed =
      RunFaultCampaign(designs, JournalCampaign(1, path.str(), true));
  EXPECT_EQ(resumed.resumed, 10u);
  EXPECT_EQ(resumed.stats.num_jobs(), 0u);
  EXPECT_EQ(resumed.ClassificationDigest(), baseline.ClassificationDigest());
}

#if AQED_FAILPOINTS_ENABLED

// The tentpole invariant: kill the campaign mid-run (simulated crash via
// the journal-append failpoint), resume, and get the uninterrupted digest
// bit-for-bit — at --jobs 1 and --jobs 8.
void InterruptAndResume(uint32_t jobs) {
  const auto designs = JournalDesigns();
  const auto baseline =
      RunFaultCampaign(designs, JournalCampaign(jobs, "", false));

  TempPath path("crash");
  failpoint::DisarmAll();
  // Die on the 6th append: some records are durable, some never happened.
  failpoint::Arm("fault.journal.append", {FailpointAction::kThrow,
                                          /*skip=*/5, /*limit=*/1});
  bool crashed = false;
  try {
    RunFaultCampaign(designs, JournalCampaign(jobs, path.str(), false));
  } catch (const FailpointError& error) {
    crashed = true;
    EXPECT_EQ(error.name(), "fault.journal.append");
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(crashed) << "campaign finished before the failpoint fired";

  // The journal holds the five durable records.
  const auto replay = ReplayJournal(path.str());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 5u);

  const auto resumed =
      RunFaultCampaign(designs, JournalCampaign(jobs, path.str(), true));
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.mutants.size(), baseline.mutants.size());
  EXPECT_EQ(resumed.ClassificationDigest(), baseline.ClassificationDigest());
}

TEST(DurableCampaignTest, InterruptedThenResumedDigestMatchesJobs1) {
  InterruptAndResume(1);
}

TEST(DurableCampaignTest, InterruptedThenResumedDigestMatchesJobs8) {
  InterruptAndResume(8);
}

#endif  // AQED_FAILPOINTS_ENABLED

TEST(DurableCampaignTest, ResumeToleratesCorruptRecord) {
  const auto designs = JournalDesigns();
  TempPath path("corrupt");
  const auto first =
      RunFaultCampaign(designs, JournalCampaign(1, path.str(), false));

  // Corrupt one complete record in the finished journal.
  auto contents = support::ReadFileToString(path.str());
  ASSERT_TRUE(contents.ok());
  std::string mangled = contents.value();
  const size_t second_start = mangled.find('\n') + 1;
  const size_t second_end = mangled.find('\n', second_start);
  ASSERT_NE(second_end, std::string::npos);
  mangled[(second_start + second_end) / 2] ^= 1;
  ASSERT_TRUE(support::WriteFileDurable(path.str(), mangled).ok());

  const auto resumed =
      RunFaultCampaign(designs, JournalCampaign(1, path.str(), true));
  EXPECT_EQ(resumed.journal_skipped, 1u);
  EXPECT_EQ(resumed.resumed, 9u);
  EXPECT_EQ(resumed.ClassificationDigest(), first.ClassificationDigest());
}

// --- memory governor ---------------------------------------------------------

TEST(MemoryGovernorTest, PressureLadderNames) {
  EXPECT_STREQ(sched::MemoryPressureName(sched::MemoryPressure::kShed),
               "shed");
  EXPECT_EQ(sched::CurrentMemoryPressure(), sched::MemoryPressure::kNone);
}

// Forcing pressure exercises the solver's shed path without allocating
// gigabytes: a pigeonhole refutation must stay kUnsat while shedding.
TEST(MemoryGovernorTest, SolverShedsUnderPressureAndStaysSound) {
  sat::Solver solver;
  const uint32_t holes = 8;
  std::vector<std::vector<sat::Var>> pigeon(holes + 1);
  for (auto& row : pigeon) {
    for (uint32_t h = 0; h < holes; ++h) row.push_back(solver.NewVar());
  }
  for (const auto& row : pigeon) {
    std::vector<sat::Lit> clause;
    for (const sat::Var var : row) clause.emplace_back(var, false);
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (size_t i = 0; i <= holes; ++i) {
      for (size_t j = i + 1; j <= holes; ++j) {
        ASSERT_TRUE(solver.AddClause({sat::Lit(pigeon[i][h], true),
                                      sat::Lit(pigeon[j][h], true)}));
      }
    }
  }
  EXPECT_GT(solver.MemoryBytes(), 0u);
  sched::internal::g_pressure.store(
      static_cast<uint8_t>(sched::MemoryPressure::kShed),
      std::memory_order_relaxed);
  const sat::SolveResult result = solver.Solve();
  sched::internal::g_pressure.store(0, std::memory_order_relaxed);
  EXPECT_EQ(result, sat::SolveResult::kUnsat);
  EXPECT_GT(solver.stats().shed_rounds, 0u);
}

// Stage 3: a session with an impossibly small budget cancels its jobs with
// UnknownReason::kMemoryBudget instead of letting the OOM killer decide.
TEST(MemoryGovernorTest, TinyBudgetCancelsJobsWithMemoryBudgetReason) {
  core::SessionOptions session_options;
  session_options.jobs = 2;
  session_options.cancel = core::SessionOptions::CancelPolicy::kNone;
  // Any real process is over 1 MiB resident, so the governor sits at the
  // cancel stage from its first poll.
  session_options.memory_budget_mb = 1;
  sched::VerificationSession session(session_options);

  core::RbOptions rb;
  rb.tau = accel::DataflowResponseBound();
  rb.rdin_bound = accel::DataflowRdinBound();
  const auto options = core::AqedOptions::Builder()
                           .WithRb(rb)
                           .WithFcBound(10)
                           .WithRbBound(24)
                           .Build();
  session.Enqueue(
      [](ir::TransitionSystem& ts) { return accel::BuildDataflow(ts, {}).acc; },
      options, "dataflow");
  const core::SessionResult result = session.Wait();
  // Pressure resets when Wait() returns (the governor stops).
  EXPECT_EQ(sched::CurrentMemoryPressure(), sched::MemoryPressure::kNone);
  size_t shed = 0;
  for (const core::JobResult& job : result.jobs) {
    const UnknownReason reason = job.result.bmc.unknown_reason;
    if (reason == UnknownReason::kMemoryBudget) ++shed;
  }
  EXPECT_GT(shed, 0u) << "no job observed the memory-budget cancellation";
  // The budget bounded the damage: the process stayed within an order of
  // magnitude of its pre-run footprint (a loose sanity bound — the real
  // assertion is the governed cancellation above).
  EXPECT_GT(telemetry::SampleResourceUsage().peak_rss_kb, 0);
}

}  // namespace
}  // namespace aqed::fault
