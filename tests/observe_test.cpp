// Observability-plane tests: the Prometheus text exposition (exact integer
// counters beyond 2^53, name mangling, cumulative buckets), histogram
// quantile estimation and its JSONL round-trip (including the percentile
// backfill for pre-upgrade files), the ambient request trace id (scoping,
// Chrome-trace export, journal and cache provenance), the durable
// Prometheus file writer under the export failpoint, and the server's
// slow-request log threshold behavior end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "fault/campaign.h"
#include "fault/journal.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace aqed::telemetry {
namespace {

using support::FailpointAction;
namespace failpoint = support::failpoint;

std::string TestPath(const char* tag) {
  return "/tmp/aqed_observe_" + std::string(tag) + "_" +
         std::to_string(::getpid());
}

// --- Prometheus exposition ---------------------------------------------------

TEST(RenderPrometheusTest, CountersRenderExactDecimalAcrossTheFullRange) {
  MetricsSnapshot snapshot;
  // 2^64-1: a JSON double (or any double-typed renderer) would round this;
  // the exposition must print it digit-exact.
  snapshot.counters.push_back({"service.requests", 18446744073709551615ull});
  snapshot.counters.push_back({"sat.conflicts", 0});
  const std::string text = RenderPrometheus(snapshot);
  EXPECT_EQ(text,
            "# TYPE service_requests counter\n"
            "service_requests 18446744073709551615\n"
            "# TYPE sat_conflicts counter\n"
            "sat_conflicts 0\n");
}

TEST(RenderPrometheusTest, NamesAreMangledToTheExpositionCharset) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"weird-name.v2/final", 1});
  snapshot.counters.push_back({"9lives", 2});
  const std::string text = RenderPrometheus(snapshot);
  EXPECT_NE(text.find("weird_name_v2_final 1\n"), std::string::npos);
  // A leading digit is not a legal metric name start; an underscore is
  // prepended rather than producing an unscrapable exposition.
  EXPECT_NE(text.find("_9lives 2\n"), std::string::npos);
}

TEST(RenderPrometheusTest, GaugesRenderSigned) {
  MetricsSnapshot snapshot;
  snapshot.gauges.push_back({"governor.pressure", -3});
  EXPECT_EQ(RenderPrometheus(snapshot),
            "# TYPE governor_pressure gauge\n"
            "governor_pressure -3\n");
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsSnapshot snapshot;
  MetricsSnapshot::HistogramValue histogram;
  histogram.name = "sched.job_ms";
  histogram.bounds = {0.5, 10};
  histogram.counts = {2, 3, 4};  // per-bucket; the wire wants cumulative
  histogram.count = 9;
  histogram.sum = 27.25;
  snapshot.histograms.push_back(std::move(histogram));
  EXPECT_EQ(RenderPrometheus(snapshot),
            "# TYPE sched_job_ms histogram\n"
            "sched_job_ms_bucket{le=\"0.5\"} 2\n"
            "sched_job_ms_bucket{le=\"10\"} 5\n"
            "sched_job_ms_bucket{le=\"+Inf\"} 9\n"
            "sched_job_ms_sum 27.25\n"
            "sched_job_ms_count 9\n");
}

TEST(RenderPrometheusTest, FileWriterIsDurableAndHonorsTheExportFailpoint) {
  const std::string path = TestPath("prom");
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"service.requests", 7});

  ASSERT_TRUE(WritePrometheusFile(path, snapshot));
  StatusOr<std::string> written = support::ReadFileToString(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), RenderPrometheus(snapshot));

  // An armed export failpoint fails the write and leaves the previous
  // exposition untouched — a scraper never sees a torn or missing file.
  failpoint::Arm("telemetry.export",
                 {.action = FailpointAction::kReturnError});
  MetricsSnapshot newer;
  newer.counters.push_back({"service.requests", 8});
  EXPECT_FALSE(WritePrometheusFile(path, newer));
  failpoint::DisarmAll();
  StatusOr<std::string> after = support::ReadFileToString(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), written.value());
  std::remove(path.c_str());
}

// --- histogram quantiles -----------------------------------------------------

TEST(HistogramQuantileTest, EmptyHistogramReportsZero) {
  const std::vector<double> bounds = {1, 10};
  const std::vector<uint64_t> counts = {0, 0, 0};
  EXPECT_EQ(HistogramQuantile(bounds, counts, 0.5), 0.0);
}

TEST(HistogramQuantileTest, InterpolatesInsideTheCrossingBucket) {
  // All four observations in [0, 10): the median interpolates to the middle
  // of the bucket, Prometheus histogram_quantile style.
  const std::vector<double> bounds = {10};
  const std::vector<uint64_t> counts = {4, 0};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.5), 5.0);
}

TEST(HistogramQuantileTest, InfBucketClampsToTheLastFiniteBound) {
  // Everything overflowed past the last edge: there is no upper bound to
  // interpolate toward, so the estimate clamps instead of inventing one.
  const std::vector<double> bounds = {10};
  const std::vector<uint64_t> counts = {0, 5};
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, counts, 0.99), 10.0);
}

TEST(HistogramQuantileTest, QuantilesAreMonotoneOnASpread) {
  const std::vector<double> bounds = {1, 3, 10, 30};
  const std::vector<uint64_t> counts = {10, 5, 3, 1, 1};
  const double p50 = HistogramQuantile(bounds, counts, 0.50);
  const double p95 = HistogramQuantile(bounds, counts, 0.95);
  const double p99 = HistogramQuantile(bounds, counts, 0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(p50, 0.0);
}

TEST(HistogramTest, ObservesIndependentlyOfTheKillSwitch) {
  // The server's request-latency histogram is a plain member, not a
  // registry lookup: it must count even when telemetry is disabled, or
  // --status would report empty quantiles on an untraced server.
  SetEnabled(false);
  Histogram histogram(DefaultLatencyBucketsMs());
  histogram.Observe(5.0);
  histogram.Observe(700.0);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 705.0);
}

// --- metrics JSONL percentiles -----------------------------------------------

MetricsSnapshot SpreadSnapshot() {
  MetricsSnapshot snapshot;
  snapshot.timestamp_us = 42;
  // A counter above 2^53 rides along: the JSONL integer path must keep it
  // exact end to end, same as the Prometheus path.
  snapshot.counters.push_back({"service.requests", (1ull << 60) + 7});
  MetricsSnapshot::HistogramValue histogram;
  histogram.name = "service.request_ms";
  histogram.bounds = {1, 10};
  histogram.counts = {8, 1, 1};
  histogram.count = 10;
  histogram.sum = 40.5;
  histogram.p50 = HistogramQuantile(histogram.bounds, histogram.counts, 0.50);
  histogram.p95 = HistogramQuantile(histogram.bounds, histogram.counts, 0.95);
  histogram.p99 = HistogramQuantile(histogram.bounds, histogram.counts, 0.99);
  snapshot.histograms.push_back(std::move(histogram));
  return snapshot;
}

TEST(MetricsJsonlTest, HistogramPercentilesRoundTrip) {
  const MetricsSnapshot snapshot = SpreadSnapshot();
  std::ostringstream out;
  WriteMetricsJsonl(out, snapshot);
  const auto log = ReadMetricsLog(out.str());
  ASSERT_TRUE(log.has_value());
  ASSERT_EQ(log->snapshot.counters.size(), 1u);
  EXPECT_EQ(log->snapshot.counters[0].value, (1ull << 60) + 7);
  ASSERT_EQ(log->snapshot.histograms.size(), 1u);
  const auto& histogram = log->snapshot.histograms[0];
  const auto& original = snapshot.histograms[0];
  EXPECT_DOUBLE_EQ(histogram.p50, original.p50);
  EXPECT_DOUBLE_EQ(histogram.p95, original.p95);
  EXPECT_DOUBLE_EQ(histogram.p99, original.p99);
  EXPECT_EQ(histogram.counts, original.counts);
}

TEST(MetricsJsonlTest, PercentilesAreBackfilledForPreUpgradeFiles) {
  // A file written before the percentile fields existed: strip them from
  // the histogram line and the reader must recompute from bounds/counts.
  const MetricsSnapshot snapshot = SpreadSnapshot();
  std::ostringstream out;
  WriteMetricsJsonl(out, snapshot);
  std::string text = out.str();
  const size_t cut = text.find(",\"p50\":");
  ASSERT_NE(cut, std::string::npos);
  const size_t end = text.find("}\n", cut);
  ASSERT_NE(end, std::string::npos);
  text.erase(cut, end - cut);
  ASSERT_EQ(text.find(",\"p50\":"), std::string::npos);

  const auto log = ReadMetricsLog(text);
  ASSERT_TRUE(log.has_value());
  ASSERT_EQ(log->snapshot.histograms.size(), 1u);
  const auto& histogram = log->snapshot.histograms[0];
  const auto& original = snapshot.histograms[0];
  EXPECT_DOUBLE_EQ(histogram.p50, original.p50);
  EXPECT_DOUBLE_EQ(histogram.p95, original.p95);
  EXPECT_DOUBLE_EQ(histogram.p99, original.p99);
}

// --- ambient trace id --------------------------------------------------------

TEST(TraceIdTest, ScopedTraceIdNestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    const ScopedTraceId outer(0xAu);
    EXPECT_EQ(CurrentTraceId(), 0xAu);
    {
      const ScopedTraceId inner(0xBu);
      EXPECT_EQ(CurrentTraceId(), 0xBu);
    }
    EXPECT_EQ(CurrentTraceId(), 0xAu);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

// Spans are inert stubs with -DAQED_TELEMETRY=OFF (telemetry_test checks
// that they record nothing there), so this test needs them compiled in.
#if AQED_TELEMETRY_ENABLED
TEST(TraceIdTest, SpanTraceIdLandsInChromeTraceArgsAsHex) {
  SetEnabled(true);
  Tracer::Global().Drain();  // discard spans earlier tests recorded
  {
    // Above 2^53 on purpose: the export must use the 16-hex string, not a
    // JSON double.
    const ScopedTraceId scope(0xFFF0000000000002ull);
    Span span("observe.traced", {{"depth", 7}});
  }
  SetEnabled(false);
  const std::vector<TraceEvent> events = Tracer::Global().Drain();
  const TraceEvent* traced = nullptr;
  for (const TraceEvent& event : events) {
    if (event.name == "observe.traced") traced = &event;
  }
  ASSERT_NE(traced, nullptr);
  EXPECT_EQ(traced->trace_id, 0xFFF0000000000002ull);

  std::ostringstream out;
  WriteChromeTrace(out, {traced, 1});
  EXPECT_NE(out.str().find("\"trace_id\":\"fff0000000000002\""),
            std::string::npos);
  EXPECT_NE(out.str().find("\"depth\":7"), std::string::npos);
}
#endif  // AQED_TELEMETRY_ENABLED

// --- journal provenance ------------------------------------------------------

fault::MutantReport SampleReport(uint64_t trace_id) {
  fault::MutantReport report;
  report.design = "alu";
  report.key.op = fault::MutationOp::kStuckAtZero;
  report.key.node = 42;
  report.key.seed = 0xA9ED;
  report.classification = fault::Classification::kDetectedFc;
  report.kind = core::BugKind::kFunctionalConsistency;
  report.cex_cycles = 5;
  report.attempts = 2;
  report.trace_id = trace_id;
  return report;
}

TEST(JournalTraceTest, RecordsRoundTripTheTraceId) {
  for (const uint64_t trace_id :
       {uint64_t{0}, uint64_t{0xFEEDFACECAFEF00D}}) {
    std::string line = fault::EncodeJournalRecord(SampleReport(trace_id));
    ASSERT_FALSE(line.empty());
    line.pop_back();  // DecodeJournalRecord takes the line sans newline
    const auto decoded = fault::DecodeJournalRecord(line);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->trace_id, trace_id);
    EXPECT_EQ(decoded->design, "alu");
  }
}

// Rebuilds a journal line around a doctored payload (the CRC covers the
// payload bytes, so edits must re-seal it).
std::string SealJournalLine(const std::string& payload) {
  std::string line = support::SealRecord(payload);
  line.pop_back();  // DecodeJournalRecord takes the line sans newline
  return line;
}

TEST(JournalTraceTest, PreTraceRecordsAndMalformedIdsDecodeAsUntraced) {
  std::string line = fault::EncodeJournalRecord(SampleReport(0xDEADBEEF));
  line.pop_back();
  const size_t data = line.find(",\"data\":") + 8;
  std::string payload = line.substr(data, line.size() - data - 1);

  // A journal written before trace ids existed: no field at all.
  const size_t field = payload.find(",\"trace_id\":\"");
  ASSERT_NE(field, std::string::npos);
  const size_t field_end = payload.find('"', field + 14);
  ASSERT_NE(field_end, std::string::npos);
  std::string stripped = payload;
  stripped.erase(field, field_end + 1 - field);
  const auto legacy = fault::DecodeJournalRecord(SealJournalLine(stripped));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->trace_id, 0u);

  // A malformed id (wrong charset) degrades to untraced, never poisons the
  // classification record around it.
  std::string mangled = payload;
  mangled.replace(field, field_end + 1 - field,
                  ",\"trace_id\":\"zzzzzzzzzzzzzzzz\"");
  const auto lax = fault::DecodeJournalRecord(SealJournalLine(mangled));
  ASSERT_TRUE(lax.has_value());
  EXPECT_EQ(lax->trace_id, 0u);
  EXPECT_EQ(lax->classification, fault::Classification::kDetectedFc);
}

// --- cache provenance --------------------------------------------------------

TEST(CacheProvenanceTest, EntriesPersistTheOriginatingTraceId) {
  const std::string path = TestPath("cache");
  service::CacheKey key;
  key.design_digest = 0x1111;
  key.config_digest = 0x2222;
  key.mutant_key = "op-swap@n4#seed=0x7";
  key.depth = 32;
  service::CachedVerdict verdict;
  verdict.classification = fault::Classification::kSurvived;
  verdict.trace_id = 0xFEEDFACECAFEF00Dull;
  {
    service::SolveCache cache;
    cache.Store(key, verdict);
    ASSERT_TRUE(cache.Save(path).ok());
  }
  StatusOr<std::string> file = support::ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  EXPECT_NE(file.value().find("\"trace_id\":\"feedfacecafef00d\""),
            std::string::npos);

  service::SolveCache reloaded;
  ASSERT_TRUE(reloaded.Load(path).ok());
  const auto hit = reloaded.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->trace_id, 0xFEEDFACECAFEF00Dull);
  std::remove(path.c_str());
}

TEST(CacheProvenanceTest, UntracedEntriesOmitTheFieldAndReloadAsZero) {
  const std::string path = TestPath("cache0");
  service::CacheKey key;
  key.design_digest = 0x3333;
  key.mutant_key = "-";
  service::CachedVerdict verdict;
  verdict.classification = fault::Classification::kSurvived;
  {
    service::SolveCache cache;
    cache.Store(key, verdict);
    ASSERT_TRUE(cache.Save(path).ok());
  }
  StatusOr<std::string> file = support::ReadFileToString(path);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file.value().find("trace_id"), std::string::npos);

  service::SolveCache reloaded;
  ASSERT_TRUE(reloaded.Load(path).ok());
  const auto hit = reloaded.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->trace_id, 0u);
  std::remove(path.c_str());
}

// --- slow-request log --------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return TestPath(tag) + ".sock";
}

service::CampaignRequest SmallAluRequest() {
  service::CampaignRequest request;
  request.designs = {"alu"};
  request.num_mutants = 3;
  request.seed = 7;
  request.jobs = 2;
  request.tenant = "observer";
  return request;
}

TEST(SlowLogTest, ZeroThresholdLogsEveryCampaignWithItsTraceId) {
  service::ServerOptions options;
  options.socket_path = TestSocketPath("slow0");
  options.slow_request_ms = 0;
  options.slow_log_path = TestPath("slow0") + ".jsonl";
  std::remove(options.slow_log_path.c_str());
  service::AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  service::Client client(options.socket_path);
  service::CampaignRequest request = SmallAluRequest();
  request.trace_id = 0xABCDEF0123456789ull;
  StatusOr<service::CampaignResponse> response = client.RunCampaign(request);
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_TRUE(response.value().ok) << response.value().error;
  server.Stop();

  StatusOr<std::string> log = support::ReadFileToString(options.slow_log_path);
  ASSERT_TRUE(log.ok());
  // Exactly one campaign ran, so exactly one JSONL record — and every field
  // the schema promises, parsed (not grepped) to prove well-formedness.
  const std::string text = log.value();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  const auto record = ParseJson(text.substr(0, text.find('\n')));
  ASSERT_TRUE(record.has_value());
  ASSERT_NE(record->Find("trace_id"), nullptr);
  EXPECT_EQ(record->Find("trace_id")->AsString(), "abcdef0123456789");
  ASSERT_NE(record->Find("tenant"), nullptr);
  EXPECT_EQ(record->Find("tenant")->AsString(), "observer");
  ASSERT_NE(record->Find("verdict"), nullptr);
  EXPECT_EQ(record->Find("verdict")->AsString(), "ok");
  ASSERT_NE(record->Find("designs"), nullptr);
  EXPECT_EQ(record->Find("designs")->AsString(), "alu");
  ASSERT_NE(record->Find("depth"), nullptr);
  EXPECT_GT(record->Find("depth")->AsInt(), 0);
  ASSERT_NE(record->Find("wall_ms"), nullptr);
  ASSERT_NE(record->Find("digest"), nullptr);
  EXPECT_EQ(record->Find("digest")->AsString().size(), 16u);
  std::remove(options.slow_log_path.c_str());
}

TEST(SlowLogTest, HugeThresholdLogsNothing) {
  service::ServerOptions options;
  options.socket_path = TestSocketPath("slowinf");
  options.slow_request_ms = 1ll << 30;  // nothing is that slow
  options.slow_log_path = TestPath("slowinf") + ".jsonl";
  std::remove(options.slow_log_path.c_str());
  service::AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  service::Client client(options.socket_path);
  StatusOr<service::CampaignResponse> response =
      client.RunCampaign(SmallAluRequest());
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response.value().ok) << response.value().error;
  server.Stop();

  // The log file exists (opened at start) but holds no records.
  StatusOr<std::string> log = support::ReadFileToString(options.slow_log_path);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log.value().empty());
  std::remove(options.slow_log_path.c_str());
}

}  // namespace
}  // namespace aqed::telemetry
