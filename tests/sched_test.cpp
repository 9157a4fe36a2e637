// Scheduler tests: cancellation primitives, the FIFO thread pool, BMC's
// cooperative cancellation, and VerificationSession semantics — job
// expansion, first-bug-wins cancellation across entries, policy scoping,
// and verdict stability across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "accel/motivating.h"
#include "aqed/checker.h"
#include "aqed/monitor_util.h"
#include "bmc/engine.h"
#include "sched/cancellation.h"
#include "sched/session.h"
#include "sched/thread_pool.h"
#include "telemetry/export.h"
#include "telemetry/report.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace aqed::sched {
namespace {

using ir::NodeRef;
using ir::Sort;

// --- cancellation primitives -------------------------------------------------

TEST(CancellationTest, DefaultTokenIsUnarmedAndNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancellationTest, SourceCancelsItsTokens) {
  CancellationSource source;
  const CancellationToken token = source.token();
  EXPECT_TRUE(token.armed());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancelled());
  // Tokens taken after the fact observe the same flag.
  EXPECT_TRUE(source.token().cancelled());
}

TEST(CancellationTest, AnyCombinatorObservesEitherSource) {
  CancellationSource a, b;
  const CancellationToken any = CancellationToken::Any(a.token(), b.token());
  EXPECT_TRUE(any.armed());
  EXPECT_FALSE(any.cancelled());
  b.Cancel();
  EXPECT_TRUE(any.cancelled());
  EXPECT_FALSE(a.token().cancelled());
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::atomic<int> sum{0};
  ThreadPool pool(4);
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&] { count.fetch_add(1); });
  pool.Submit([&] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, SingleWorkerRunsInSubmissionOrder) {
  std::vector<int> order;
  ThreadPool pool(1);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

// --- BMC cooperative cancellation -------------------------------------------

TEST(BmcCancellationTest, PreCancelledRunStopsBeforeTheFirstFrame) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef counter = ts.AddState("counter", Sort::BitVec(8), 0);
  ts.SetNext(counter, ctx.Add(counter, ctx.Const(8, 1)));
  ts.AddBad(ctx.Eq(counter, ctx.Const(8, 200)), "deep");

  CancellationSource source;
  source.Cancel();
  bmc::BmcOptions options;
  options.max_bound = 50;
  options.cancel = source.token();
  const bmc::BmcResult result = bmc::RunBmc(ts, options);
  EXPECT_EQ(result.outcome, bmc::BmcResult::Outcome::kUnknown);
  EXPECT_EQ(result.unknown_reason, UnknownReason::kCancelled);
  EXPECT_EQ(result.frames_explored, 0u);
}

// --- session toys ------------------------------------------------------------

// One-deep accelerator: capture when idle, respond next cycle with in + 1.
// With `early_output` the design asserts out_valid straight out of reset —
// a depth-0 FC(early-output) bug, the cheapest possible detection.
core::AcceleratorInterface BuildSessionToy(ir::TransitionSystem& ts,
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

core::AcceleratorBuilder ToyBuilder(bool early_output) {
  return [early_output](ir::TransitionSystem& ts) {
    return BuildSessionToy(ts, early_output);
  };
}

// --- session semantics -------------------------------------------------------

TEST(VerificationSessionTest, ExpandsOneJobPerEnabledPropertyGroup) {
  core::SessionOptions session_options;
  session_options.jobs = 1;
  VerificationSession session(session_options);
  core::AqedOptions options;  // FC only
  options.bmc.max_bound = 4;
  session.Enqueue(ToyBuilder(false), options, "toy");
  core::AqedOptions fc_rb = options;
  fc_rb.rb = core::RbOptions{};
  fc_rb.rb->tau = 4;
  session.Enqueue(ToyBuilder(false), fc_rb);
  const auto result = session.Wait();

  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_EQ(result.num_entries, 2u);
  EXPECT_EQ(result.jobs[0].label, "toy/FC");
  EXPECT_EQ(result.jobs[0].entry, 0u);
  // Unlabeled entries use the bare property name, cheapest group first.
  EXPECT_EQ(result.jobs[1].label, "RB");
  EXPECT_EQ(result.jobs[2].label, "FC");
  EXPECT_EQ(result.jobs[2].entry, 1u);
  EXPECT_FALSE(result.bug_found(0));
  EXPECT_FALSE(result.bug_found(1));
  EXPECT_EQ(result.stats.num_jobs(), 3u);
  EXPECT_EQ(result.stats.num_cancelled(), 0u);
}

TEST(VerificationSessionTest, InlineSessionMatchesCheckAccelerator) {
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  const auto direct = core::CheckAccelerator(ToyBuilder(true), options);
  VerificationSession session;
  session.Enqueue(ToyBuilder(true), options);
  const auto via_session = session.Wait();
  ASSERT_TRUE(direct.bug_found(0));
  EXPECT_EQ(via_session.bug_found(0), direct.bug_found(0));
  EXPECT_EQ(via_session.kind(0), direct.kind(0));
  EXPECT_EQ(via_session.cex_cycles(0), direct.cex_cycles(0));
  EXPECT_EQ(direct.kind(0), core::BugKind::kEarlyOutput);
  EXPECT_EQ(direct.cex_cycles(0), 1u);  // depth-0 bug -> 1-cycle trace
  // The reported run's transition system is owned by the result.
  EXPECT_FALSE(direct.ts(0).bads().empty());
}

TEST(VerificationSessionTest, FirstBugWinsCancelsSessionSiblings) {
  // Entry 0: clean design with a deliberately huge bound — thousands of
  // cheap per-depth refutations, far more wall time than entry 1 needs.
  // Entry 1: depth-0 bug, found in one solver call. Under the session-wide
  // cancel policy the bug must stop entry 0 mid-run: its FC job reports
  // cancelled with frames_explored strictly below the requested bound.
  constexpr uint32_t kHugeBound = 5000;
  core::SessionOptions session_options;
  session_options.jobs = 2;
  session_options.cancel = core::SessionOptions::CancelPolicy::kSession;
  VerificationSession session(session_options);
  core::AqedOptions heavy;
  heavy.bmc.max_bound = kHugeBound;
  session.Enqueue(ToyBuilder(false), heavy, "clean");
  core::AqedOptions cheap;
  cheap.bmc.max_bound = 6;
  session.Enqueue(ToyBuilder(true), cheap, "buggy");
  const auto result = session.Wait();

  EXPECT_FALSE(result.bug_found(0));
  ASSERT_TRUE(result.bug_found(1));
  EXPECT_EQ(result.kind(1), core::BugKind::kEarlyOutput);
  const core::JobResult& heavy_job = result.jobs[0];
  EXPECT_TRUE(heavy_job.cancelled);
  EXPECT_LT(heavy_job.result.bmc.frames_explored, kHugeBound);
  EXPECT_GE(result.stats.num_cancelled(), 1u);
}

TEST(VerificationSessionTest, NoCancelPolicyRunsEveryJobToCompletion) {
  core::SessionOptions session_options;
  session_options.jobs = 2;
  session_options.cancel = core::SessionOptions::CancelPolicy::kNone;
  VerificationSession session(session_options);
  core::AqedOptions clean;
  clean.bmc.max_bound = 8;
  session.Enqueue(ToyBuilder(false), clean, "clean");
  core::AqedOptions buggy;
  buggy.bmc.max_bound = 6;
  session.Enqueue(ToyBuilder(true), buggy, "buggy");
  const auto result = session.Wait();
  EXPECT_TRUE(result.bug_found(1));
  EXPECT_EQ(result.stats.num_cancelled(), 0u);
  EXPECT_EQ(result.jobs[0].result.bmc.frames_explored, 8u);
}

TEST(VerificationSessionTest, ExternalCancelStopsPendingJobs) {
  VerificationSession session;
  core::AqedOptions options;
  options.bmc.max_bound = 8;
  session.Enqueue(ToyBuilder(false), options);
  session.Cancel();
  const auto result = session.Wait();
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_TRUE(result.jobs[0].cancelled);
  EXPECT_EQ(result.jobs[0].ts, nullptr);
  EXPECT_FALSE(result.bug_found(0));
}

// --- session telemetry export ------------------------------------------------

#if AQED_TELEMETRY_ENABLED

std::string SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

// Restores the process-wide telemetry switch (sessions with sink paths arm
// it as a side effect) and leaves a clean global tracer behind.
struct TelemetryCleanup {
  ~TelemetryCleanup() {
    telemetry::SetEnabled(false);
    telemetry::Tracer::Global().Clear();
  }
};

TEST(SessionTelemetryTest, WaitExportsTraceMetricsAndFlightRecorderSamples) {
  TelemetryCleanup cleanup;
  telemetry::Tracer::Global().Clear();
  const std::string trace_path = testing::TempDir() + "/aqed_ok_trace.json";
  const std::string metrics_path =
      testing::TempDir() + "/aqed_ok_metrics.jsonl";
  core::SessionOptions session_options;
  session_options.trace_path = trace_path;
  session_options.metrics_path = metrics_path;
  session_options.sample_period_ms = 1;
  VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  session.Enqueue(ToyBuilder(true), options, "toy");
  const auto result = session.Wait();
  EXPECT_TRUE(result.bug_found(0));

  const auto spans = telemetry::ParseChromeTrace(SlurpFile(trace_path));
  ASSERT_TRUE(spans.has_value());
  EXPECT_TRUE(std::any_of(spans->begin(), spans->end(), [](const auto& s) {
    return s.name == "sched.job:toy/FC";
  }));
  const auto log = telemetry::ReadMetricsLog(SlurpFile(metrics_path));
  ASSERT_TRUE(log.has_value());
  // The sampler brackets the run: at least the start and stop samples.
  EXPECT_GE(log->samples.size(), 2u);
}

// Regression test for the RAII export guard: a builder that throws out of
// an inline Wait() must still leave parseable telemetry files behind — a
// session that dies mid-run is the one whose telemetry matters most.
TEST(SessionTelemetryTest, ExportGuardWritesFilesWhenABuilderThrows) {
  TelemetryCleanup cleanup;
  telemetry::Tracer::Global().Clear();
  const std::string trace_path = testing::TempDir() + "/aqed_throw_trace.json";
  const std::string metrics_path =
      testing::TempDir() + "/aqed_throw_metrics.jsonl";
  core::SessionOptions session_options;
  session_options.jobs = 1;  // inline: the exception escapes Wait()
  session_options.trace_path = trace_path;
  session_options.metrics_path = metrics_path;
  VerificationSession session(session_options);
  core::AqedOptions options;
  options.bmc.max_bound = 4;
  session.Enqueue(ToyBuilder(false), options, "before");
  session.Enqueue(
      [](ir::TransitionSystem&) -> core::AcceleratorInterface {
        throw std::runtime_error("builder exploded");
      },
      options, "boom");
  EXPECT_THROW(session.Wait(), std::runtime_error);

  // Both files exist and parse; the trace covers the work done before the
  // explosion (the first entry's completed FC job).
  const auto spans = telemetry::ParseChromeTrace(SlurpFile(trace_path));
  ASSERT_TRUE(spans.has_value());
  EXPECT_TRUE(std::any_of(spans->begin(), spans->end(), [](const auto& s) {
    return s.name == "sched.job:before/FC";
  }));
  EXPECT_TRUE(telemetry::ReadMetricsLog(SlurpFile(metrics_path)).has_value());
}

#endif  // AQED_TELEMETRY_ENABLED

// The scheduler must not change verdicts: the paper's motivating example
// (clock-enable bug) reports the identical result at every worker count.
TEST(VerificationSessionStressTest, MotivatingVerdictStableAcrossJobCounts) {
  accel::MotivatingConfig config;
  config.data_width = 2;
  config.bug_clock_enable = true;
  const core::AcceleratorBuilder build = [config](ir::TransitionSystem& ts) {
    return accel::BuildMotivating(ts, config).acc;
  };
  const auto options = core::AqedOptions::Builder()
                           .WithRb({.tau = 24})
                           .WithBound(16)  // the bug sits at depth 14
                           .WithRbBound(12)
                           .Build();

  const auto baseline = core::CheckAccelerator(build, options);
  ASSERT_TRUE(baseline.bug_found(0));
  for (uint32_t jobs : {2u, 8u}) {
    core::SessionOptions session_options;
    session_options.jobs = jobs;
    const auto result = core::CheckAccelerator(build, options,
                                               session_options);
    EXPECT_EQ(result.bug_found(0), baseline.bug_found(0)) << jobs;
    EXPECT_EQ(result.kind(0), baseline.kind(0)) << jobs;
    EXPECT_EQ(result.cex_cycles(0), baseline.cex_cycles(0)) << jobs;
  }
}

}  // namespace
}  // namespace aqed::sched
