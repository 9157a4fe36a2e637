// Scheduler tests: cancellation primitives, the FIFO thread pool, BMC's
// cooperative cancellation, the session monitor's deadline and
// flight-recorder duties, and VerificationSession semantics — job
// expansion, first-bug-wins cancellation across entries, policy scoping,
// the monitor's one thread, and verdict stability across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accel/motivating.h"
#include "aqed/checker.h"
#include "aqed/monitor_util.h"
#include "bmc/engine.h"
#include "sched/cancellation.h"
#include "sched/monitor.h"
#include "sched/session.h"
#include "sched/thread_pool.h"
#include "telemetry/export.h"
#include "telemetry/report.h"
#include "telemetry/resource.h"
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

// --- session monitor: deadlines ---------------------------------------------

// Polls `done` every millisecond for up to `limit`; true once it holds.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(WatchdogTest, TripsTheSourceWithDeadlineReason) {
  SessionMonitor monitor;
  monitor.Start();
  const auto scope = monitor.Register("job", 5);
  const CancellationToken token = scope.token();
  ASSERT_TRUE(WaitFor([&] { return token.cancelled(); },
                      std::chrono::seconds(10)));
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  EXPECT_EQ(UnknownReasonFromCancel(token.reason()), UnknownReason::kDeadline);
}

TEST(WatchdogTest, DisarmedGuardNeverFires) {
  SessionMonitor monitor;
  monitor.Start();
  CancellationToken token;
  {
    auto scope = monitor.Register("job", 30);
    token = scope.token();
    scope.Release();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(token.cancelled());
}

TEST(WatchdogTest, GuardDestructorDisarms) {
  SessionMonitor monitor;
  monitor.Start();
  CancellationToken token;
  {
    const auto scope = monitor.Register("job", 30);
    token = scope.token();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(token.cancelled());
}

// --- session monitor: flight recorder ----------------------------------------

// Arms the process-wide telemetry switch (the monitor samples only with
// telemetry on) and restores it afterwards.
struct TelemetryOn {
  TelemetryOn() : was_enabled(telemetry::Enabled()) {
    telemetry::SetEnabled(true);
  }
  ~TelemetryOn() { telemetry::SetEnabled(was_enabled); }
  bool was_enabled;
};

#if AQED_TELEMETRY_ENABLED

TEST(SamplerTest, BracketsTheRunAndSnapshotsTheRegistry) {
  TelemetryOn telemetry_on;
  telemetry::MetricsRegistry registry;
  registry.counter("s.counter").Add(7);
  registry.gauge("s.gauge").Set(3);
  SessionMonitor monitor(/*memory_budget_mb=*/0, /*sample_period_ms=*/1,
                         &registry);
  EXPECT_FALSE(monitor.running());
  monitor.Start();
  EXPECT_TRUE(monitor.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  monitor.Stop();
  EXPECT_FALSE(monitor.running());

  const auto samples = monitor.TakeSamples();
  // At least the immediate start sample and the final stop sample.
  ASSERT_GE(samples.size(), 2u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].timestamp_us, samples[i - 1].timestamp_us);
  }
  ASSERT_EQ(samples.front().counters.size(), 1u);
  EXPECT_EQ(samples.front().counters[0].name, "s.counter");
  EXPECT_EQ(samples.front().counters[0].value, 7u);
  ASSERT_EQ(samples.front().gauges.size(), 1u);
  EXPECT_EQ(samples.front().gauges[0].value, 3);
  EXPECT_EQ(monitor.num_dropped(), 0u);
  // TakeSamples moves the ring out.
  EXPECT_TRUE(monitor.TakeSamples().empty());
}

TEST(SamplerTest, RingDropsOldestPastCapacity) {
  TelemetryOn telemetry_on;
  telemetry::MetricsRegistry registry;
  SessionMonitor monitor(0, 1, &registry);
  monitor.Start();
  // One sample per millisecond fills the ring in a few seconds.
  EXPECT_TRUE(WaitFor([&] { return monitor.num_dropped() > 0; },
                      std::chrono::seconds(120)));
  monitor.Stop();
  EXPECT_GT(monitor.num_dropped(), 0u);
  const auto samples = monitor.TakeSamples();
  ASSERT_EQ(samples.size(), SessionMonitor::kSampleCapacity);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].timestamp_us, samples[i - 1].timestamp_us);
  }
}

TEST(SamplerTest, ConcurrentStopCallsAreSafe) {
  TelemetryOn telemetry_on;
  telemetry::MetricsRegistry registry;
  // Racing Stop()s must not double-join (or join a moved-from thread, which
  // throws std::system_error); exactly one caller records the final sample.
  for (int round = 0; round < 20; ++round) {
    SessionMonitor monitor(0, 1, &registry);
    monitor.Start();
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) {
      stoppers.emplace_back([&monitor] { monitor.Stop(); });
    }
    for (std::thread& t : stoppers) t.join();
    EXPECT_FALSE(monitor.running());
    EXPECT_GE(monitor.TakeSamples().size(), 2u);  // start + final sample
  }
}

#else  // !AQED_TELEMETRY_ENABLED

TEST(SamplerTest, CompiledOutStubIsInert) {
  TelemetryOn telemetry_on;
  telemetry::MetricsRegistry registry;
  SessionMonitor monitor(0, 1, &registry);
  monitor.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  monitor.Stop();
  EXPECT_TRUE(monitor.TakeSamples().empty());
  EXPECT_EQ(monitor.num_dropped(), 0u);
}

#endif  // AQED_TELEMETRY_ENABLED

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

// The three monitor duties share one thread, and a session that arms none
// starts no thread at all. The builder of an inline job reads the process
// thread count while the monitor runs.
TEST(SessionMonitorTest, OneThreadServesEveryDutyAndNoneWhenUnarmed) {
  TelemetryOn telemetry_on;  // restores the switch the metrics sink arms
  const auto extra_threads_in_job = [](core::SessionOptions session_options) {
    session_options.jobs = 1;
    VerificationSession session(session_options);
    int64_t in_job = -1;
    core::AqedOptions options;
    options.bmc.max_bound = 2;
    session.Enqueue(
        [&in_job](ir::TransitionSystem& ts) {
          in_job = telemetry::SampleResourceUsage().num_threads;
          return BuildSessionToy(ts, false);
        },
        options, "toy");
    const int64_t before = telemetry::SampleResourceUsage().num_threads;
    session.Wait();
    return in_job - before;
  };
  if (telemetry::SampleResourceUsage().num_threads == 0) {
    GTEST_SKIP() << "no thread-count probe on this platform";
  }
  // ThreadSanitizer's runtime starts a helper thread when the process
  // creates its first thread; create one up front so the counts below see
  // only the threads a session starts.
  std::thread([] {}).join();
  EXPECT_EQ(extra_threads_in_job({}), 0);
  core::SessionOptions armed;
  armed.deadline_ms = 600000;
  armed.memory_budget_mb = 65536;
  armed.sample_period_ms = 20;
  armed.metrics_path = testing::TempDir() + "/aqed_monitor_metrics.jsonl";
  EXPECT_EQ(extra_threads_in_job(armed), 1);
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
