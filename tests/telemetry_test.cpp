// Telemetry subsystem tests: the runtime kill switch, span recording into
// per-thread buffers (no events lost across threads or flush boundaries),
// Chrome trace-event export validity (parseable JSON, per-tid ordering,
// thread metadata), metrics instruments and registry snapshots, the JSONL
// round trip (snapshot + flight-recorder time series), the resource probes,
// and the HTML report renderer. The flight recorder itself is tested with
// the session monitor in sched_test.
//
// Span-producing tests are gated on AQED_TELEMETRY_ENABLED: with
// -DAQED_TELEMETRY=OFF the Span class is an inert stub, and the OFF build
// instead asserts that stubbed instrumentation records nothing even with
// the runtime switch forced on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/resource.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace aqed::telemetry {
namespace {

// Flips telemetry on for one test, with a clean global tracer on both
// sides: the global is shared process state and tests must not see each
// other's spans.
struct ScopedTelemetry {
  ScopedTelemetry() {
    Tracer::Global().Clear();
    SetEnabled(true);
  }
  ~ScopedTelemetry() {
    SetEnabled(false);
    Tracer::Global().Clear();
  }
};

// --- kill switch -------------------------------------------------------------

TEST(KillSwitchTest, DisabledTelemetryRecordsNothing) {
  Tracer::Global().Clear();
  ASSERT_FALSE(Enabled());  // off is the process default
  {
    TELEMETRY_SPAN("dead.span", {{"k", 1}});
    Span explicit_span("dead.explicit");
    explicit_span.AddArg("k", 2);
    explicit_span.End();
  }
  AddCounter("dead.counter", 5);
  ObserveLatencyMs("dead.latency", 1.0);
  EXPECT_EQ(Tracer::Global().num_recorded(), 0u);
  EXPECT_TRUE(Tracer::Global().Drain().empty());
  for (const auto& c : MetricsRegistry::Global().Snapshot().counters) {
    EXPECT_NE(c.name, "dead.counter");
  }
}

TEST(KillSwitchTest, SpanConstructedWhileDisabledStaysInert) {
  Tracer::Global().Clear();
  Span span("late.enable");
  SetEnabled(true);
  span.End();  // half-observed spans are worse than none
  SetEnabled(false);
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

// --- spans -------------------------------------------------------------------

#if AQED_TELEMETRY_ENABLED

TEST(SpanTest, RecordsOneCompleteEventWithArgs) {
  ScopedTelemetry telemetry;
  {
    Span span("unit.work", {{"depth", 7}});
    span.AddArg("result", 1);
  }
  const auto events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.work");
  EXPECT_EQ(events[0].tid, ThreadId());
  ASSERT_EQ(events[0].num_args, 2u);
  EXPECT_STREQ(events[0].args[0].key, "depth");
  EXPECT_EQ(events[0].args[0].value, 7);
  EXPECT_STREQ(events[0].args[1].key, "result");
  EXPECT_EQ(events[0].args[1].value, 1);
}

TEST(SpanTest, EndIsIdempotent) {
  ScopedTelemetry telemetry;
  Span span("unit.once");
  span.End();
  span.End();  // destructor will be the third call
  EXPECT_EQ(Tracer::Global().Drain().size(), 1u);
}

TEST(SpanTest, NestedSpansStayInsideTheirParent) {
  ScopedTelemetry telemetry;
  {
    TELEMETRY_SPAN("outer");
    TELEMETRY_SPAN("inner", {{"i", 0}});
  }
  auto events = Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends (and records) first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_GE(inner.begin_us, outer.begin_us);
  EXPECT_LE(inner.begin_us + inner.dur_us, outer.begin_us + outer.dur_us);
}

TEST(SpanTest, ConcurrentSpansFromEightThreadsLoseNoEvents) {
  ScopedTelemetry telemetry;
  constexpr int kThreads = 8;
  // Enough per thread to push every buffer through the flush threshold at
  // least once, so the central-drain path is exercised, not just the
  // per-thread tail sweep.
  constexpr int kSpansPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span("mt.span", {{"thread", t}, {"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const auto events = Tracer::Global().Drain();
  std::map<uint32_t, int> per_tid;
  for (const TraceEvent& e : events) {
    ASSERT_EQ(e.name, "mt.span");
    ++per_tid[e.tid];
  }
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  ASSERT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kSpansPerThread);
  // Drain moved everything out.
  EXPECT_TRUE(Tracer::Global().Drain().empty());
}

#else  // !AQED_TELEMETRY_ENABLED

TEST(SpanTest, CompiledOutSpansRecordNothingEvenWhenRuntimeEnabled) {
  ScopedTelemetry telemetry;
  {
    TELEMETRY_SPAN("stub.span", {{"k", 1}});
    Span span("stub.explicit");
    span.AddArg("k", 2);
    span.End();
  }
  EXPECT_EQ(Tracer::Global().num_recorded(), 0u);
  // The metric free helpers are empty inlines in this configuration.
  AddCounter("stub.counter", 5);
  SetGauge("stub.gauge", 7);
  for (const auto& c : MetricsRegistry::Global().Snapshot().counters) {
    EXPECT_NE(c.name, "stub.counter");
  }
  for (const auto& g : MetricsRegistry::Global().Snapshot().gauges) {
    EXPECT_NE(g.name, "stub.gauge");
  }
}

#endif  // AQED_TELEMETRY_ENABLED

// --- Chrome trace export -----------------------------------------------------

#if AQED_TELEMETRY_ENABLED
TEST(ChromeTraceTest, ExportIsValidJsonWithOrderedPerThreadSpans) {
  ScopedTelemetry telemetry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 20; ++i) {
        Span span("trace.work", {{"i", i}});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto events = Tracer::Global().Drain();

  std::ostringstream out;
  WriteChromeTrace(out, events);
  const auto root = ParseJson(out.str());
  ASSERT_TRUE(root.has_value()) << out.str().substr(0, 200);
  const Json* trace_events = root->Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());

  std::map<int64_t, int64_t> last_ts;   // per tid, for monotonicity
  std::map<int64_t, int> spans_per_tid;
  std::map<int64_t, int> names_per_tid;
  for (const Json& event : trace_events->AsArray()) {
    const Json* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    const Json* tid = event.Find("tid");
    ASSERT_NE(tid, nullptr);
    if (ph->AsString() == "M") {
      ASSERT_NE(event.Find("name"), nullptr);
      EXPECT_EQ(event.Find("name")->AsString(), "thread_name");
      ++names_per_tid[tid->AsInt()];
      continue;
    }
    // Complete events carry matched begin/end by construction: one "X"
    // record per span, with ts (begin) and dur both present and sane.
    EXPECT_EQ(ph->AsString(), "X");
    const Json* ts = event.Find("ts");
    const Json* dur = event.Find("dur");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_GE(ts->AsInt(), 0);
    EXPECT_GE(dur->AsInt(), 0);
    const Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->Find("i"), nullptr);
    // File order within a tid is begin-sorted (stable viewer rows).
    auto [it, inserted] = last_ts.try_emplace(tid->AsInt(), ts->AsInt());
    if (!inserted) {
      EXPECT_LE(it->second, ts->AsInt());
      it->second = ts->AsInt();
    }
    ++spans_per_tid[tid->AsInt()];
  }
  ASSERT_EQ(spans_per_tid.size(), 4u);
  for (const auto& [tid, n] : spans_per_tid) {
    EXPECT_EQ(n, 20);
    // Every tid with spans got exactly one thread_name metadata record.
    EXPECT_EQ(names_per_tid[tid], 1);
  }
}
#endif  // AQED_TELEMETRY_ENABLED

TEST(ChromeTraceTest, EscapesSpanNames) {
  ScopedTelemetry telemetry;
  Tracer::Global().RecordComplete("quote\"back\\slash\nnewline", 1, 2);
  std::ostringstream out;
  WriteChromeTrace(out, Tracer::Global().Drain());
  const auto root = ParseJson(out.str());
  ASSERT_TRUE(root.has_value());
  const auto& events = root->Find("traceEvents")->AsArray();
  // One span + one thread_name record.
  ASSERT_EQ(events.size(), 2u);
  bool found = false;
  for (const Json& event : events) {
    if (event.Find("ph")->AsString() != "X") continue;
    EXPECT_EQ(event.Find("name")->AsString(), "quote\"back\\slash\nnewline");
    found = true;
  }
  EXPECT_TRUE(found);
}

// --- metrics instruments -----------------------------------------------------

TEST(MetricsTest, HistogramBucketsAndSum) {
  const double bounds[] = {1.0, 10.0};
  Histogram h{std::span<const double>(bounds)};
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(50.0);
  EXPECT_EQ(h.counts(), (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
}

TEST(MetricsTest, GaugeSetMaxIsAHighWaterMark) {
  Gauge g;
  g.SetMax(7);
  g.SetMax(3);
  EXPECT_EQ(g.value(), 7);
  g.SetMax(11);
  EXPECT_EQ(g.value(), 11);
}

TEST(MetricsTest, RegistryReturnsStableInstrumentsAndSortedSnapshots) {
  MetricsRegistry registry;
  Counter& b = registry.counter("b.counter");
  Counter& a = registry.counter("a.counter");
  EXPECT_EQ(&b, &registry.counter("b.counter"));  // find-or-create
  a.Add(1);
  b.Add(2);
  registry.gauge("g").Set(-3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "a.counter");
  EXPECT_EQ(snapshot.counters[0].value, 1u);
  EXPECT_EQ(snapshot.counters[1].name, "b.counter");
  EXPECT_EQ(snapshot.counters[1].value, 2u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].value, -3);
}

// --- metrics JSONL round trip ------------------------------------------------

TEST(MetricsJsonlTest, SnapshotRoundTrips) {
  MetricsRegistry registry;
  registry.counter("sat.conflicts").Add(12345);
  registry.gauge("sched.pool.active").Set(-1);
  Histogram& h = registry.histogram("sched.job_ms");
  h.Observe(0.05);
  h.Observe(2.5);
  h.Observe(1e6);  // +inf bucket
  const MetricsSnapshot snapshot = registry.Snapshot();

  std::ostringstream out;
  WriteMetricsJsonl(out, snapshot);
  const auto loaded = ReadMetricsJsonl(out.str());
  ASSERT_TRUE(loaded.has_value()) << out.str();

  EXPECT_EQ(loaded->timestamp_us, snapshot.timestamp_us);
  ASSERT_EQ(loaded->counters.size(), 1u);
  EXPECT_EQ(loaded->counters[0].name, "sat.conflicts");
  EXPECT_EQ(loaded->counters[0].value, 12345u);
  ASSERT_EQ(loaded->gauges.size(), 1u);
  EXPECT_EQ(loaded->gauges[0].value, -1);
  ASSERT_EQ(loaded->histograms.size(), 1u);
  const auto& hist = loaded->histograms[0];
  EXPECT_EQ(hist.name, "sched.job_ms");
  EXPECT_EQ(hist.bounds, snapshot.histograms[0].bounds);
  EXPECT_EQ(hist.counts, snapshot.histograms[0].counts);
  EXPECT_EQ(hist.count, 3u);
  EXPECT_DOUBLE_EQ(hist.sum, snapshot.histograms[0].sum);
}

TEST(MetricsJsonlTest, CounterValuesAbove2To53RoundTripExactly) {
  constexpr uint64_t kBig = (UINT64_C(1) << 53) + 1;  // not double-exact
  MetricsRegistry registry;
  registry.counter("big.counter").Add(kBig);
  std::ostringstream out;
  std::vector<TimeSeriesSample> samples(1);
  samples[0].timestamp_us = 1;
  samples[0].counters = {{"big.counter", kBig}};
  WriteMetricsJsonl(out, registry.Snapshot(), samples);
  const auto log = ReadMetricsLog(out.str());
  ASSERT_TRUE(log.has_value()) << out.str();
  ASSERT_EQ(log->snapshot.counters.size(), 1u);
  EXPECT_EQ(log->snapshot.counters[0].value, kBig);
  ASSERT_EQ(log->samples.size(), 1u);
  ASSERT_EQ(log->samples[0].counters.size(), 1u);
  EXPECT_EQ(log->samples[0].counters[0].value, kBig);
}

TEST(MetricsJsonlTest, RejectsMissingHeaderAndMalformedLines) {
  EXPECT_FALSE(ReadMetricsJsonl("{\"type\":\"counter\",\"name\":\"c\","
                                "\"value\":1}\n")
                   .has_value());
  EXPECT_FALSE(ReadMetricsJsonl("{\"type\":\"snapshot\","
                                "\"timestamp_us\":1}\nnot json\n")
                   .has_value());
}

// --- JSON parser -------------------------------------------------------------

TEST(JsonTest, ParsesNestedValues) {
  const auto json =
      ParseJson(R"( {"a":[1,-2.5,true,null,"s\t\"q\""],"b":{"c":3}} )");
  ASSERT_TRUE(json.has_value());
  const auto& a = json->Find("a")->AsArray();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[1].AsNumber(), -2.5);
  EXPECT_TRUE(a[2].AsBool());
  EXPECT_TRUE(a[3].is_null());
  EXPECT_EQ(a[4].AsString(), "s\t\"q\"");
  EXPECT_EQ(json->Find("b")->Find("c")->AsInt(), 3);
}

TEST(JsonTest, IntegerLiteralsKeepInt64Precision) {
  // 2^53 + 1 is the first integer a double cannot represent.
  auto json = ParseJson("9007199254740993");
  ASSERT_TRUE(json.has_value());
  EXPECT_TRUE(json->is_integer());
  EXPECT_EQ(json->AsInt(), INT64_C(9007199254740993));
  json = ParseJson("-9007199254740993");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), INT64_C(-9007199254740993));
  json = ParseJson("1234567890123456789");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), INT64_C(1234567890123456789));
  // Fractions and exponents stay on the double path.
  json = ParseJson("2.5");
  ASSERT_TRUE(json.has_value());
  EXPECT_FALSE(json->is_integer());
  EXPECT_DOUBLE_EQ(json->AsNumber(), 2.5);
  json = ParseJson("1e3");
  ASSERT_TRUE(json.has_value());
  EXPECT_FALSE(json->is_integer());
  EXPECT_DOUBLE_EQ(json->AsNumber(), 1000.0);
  // Integer literals beyond int64 fall back to double, not a parse error.
  json = ParseJson("99999999999999999999999999");
  ASSERT_TRUE(json.has_value());
  EXPECT_FALSE(json->is_integer());
  EXPECT_GT(json->AsNumber(), 9e24);
}

TEST(JsonTest, AsIntSaturatesNumbersOutsideInt64) {
  // Casting these doubles to int64 would be undefined behaviour.
  auto json = ParseJson("{\"depth\":1e300}");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->Find("depth")->AsInt(), INT64_MAX);
  json = ParseJson("-1e300");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), INT64_MIN);
  json = ParseJson("1e999");  // strtod overflows to infinity
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), INT64_MAX);
  json = ParseJson("18446744073709551615");  // UINT64_MAX, past int64
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), INT64_MAX);
  json = ParseJson("-2.75");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsInt(), -2);  // in range: truncates toward zero
}

TEST(JsonTest, TypedReadsCheckTypeAndRange) {
  const auto json = ParseJson(
      R"({"s":"text","b":true,"d":2.5,"i":42,"neg":-7,"big":4294967297,)"
      R"("huge":1e300,"frac":1.5,"whole":3.0,"hex":"00c0ffee12345678",)"
      R"("HEX":"00C0FFEE12345678","short":"c0ffee","bad":"00c0ffee1234567g"})");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->GetString("s"), "text");
  EXPECT_EQ(json->GetString("i"), std::nullopt);  // wrong type
  EXPECT_EQ(json->GetString("absent"), std::nullopt);
  EXPECT_EQ(json->GetBool("b"), true);
  EXPECT_EQ(json->GetBool("i"), std::nullopt);
  EXPECT_EQ(json->GetDouble("d"), 2.5);
  EXPECT_EQ(json->GetDouble("i"), 42.0);  // integers are numbers too
  EXPECT_EQ(json->GetDouble("s"), std::nullopt);
  EXPECT_EQ(ParseJson(R"({"inf":1e999})")->GetDouble("inf"), std::nullopt);

  EXPECT_EQ(json->GetInt("i", 0, 100), 42);
  EXPECT_EQ(json->GetInt("i", 0, 41), std::nullopt);  // above hi
  EXPECT_EQ(json->GetInt("neg", 0, 100), std::nullopt);  // below lo
  EXPECT_EQ(json->GetInt("neg", -10, 0), -7);
  EXPECT_EQ(json->GetInt("big", 0, UINT32_MAX), std::nullopt);  // no wrap
  EXPECT_EQ(json->GetInt("big", 0, INT64_MAX), INT64_C(4294967297));
  EXPECT_EQ(json->GetInt("huge", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(json->GetInt("frac", INT64_MIN, INT64_MAX), std::nullopt);
  EXPECT_EQ(json->GetInt("whole", 0, 10), 3);
  EXPECT_EQ(json->GetInt("s", INT64_MIN, INT64_MAX), std::nullopt);

  EXPECT_EQ(json->GetHex64("hex"), UINT64_C(0x00c0ffee12345678));
  EXPECT_EQ(json->GetHex64("HEX"), UINT64_C(0x00c0ffee12345678));
  EXPECT_EQ(json->GetHex64("short"), std::nullopt);  // not 16 digits
  EXPECT_EQ(json->GetHex64("bad"), std::nullopt);
  EXPECT_EQ(json->GetHex64("i"), std::nullopt);

  // A non-object has no members.
  EXPECT_EQ(ParseJson("[1]")->GetInt("0", 0, 10), std::nullopt);
}

TEST(JsonTest, StringLiteralsConstructStringsNotBools) {
  EXPECT_TRUE(Json("ping").is_string());
  EXPECT_EQ(Dump(Json::Object({{"type", Json("ping")}})),
            "{\"type\":\"ping\"}");
}

TEST(JsonTest, AppendJsonStringEscapesLikeDump) {
  const std::string text = std::string("q\"b\\n\n\x01\b\f\t", 10);
  std::string out;
  AppendJsonString(out, text);
  EXPECT_EQ(out, "\"q\\\"b\\\\n\\n\\u0001\\b\\f\\t\"");
  EXPECT_EQ(out, Dump(Json(text)));
  EXPECT_EQ(ParseJson(out)->AsString(), text);
}

TEST(JsonTest, NonFiniteNumbersDumpAsNullAndReparse) {
  const std::string text =
      Dump(Json::Object({{"sum", Json(INFINITY)}, {"nan", Json(NAN)}}));
  EXPECT_EQ(text, "{\"nan\":null,\"sum\":null}");
  const std::optional<Json> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Find("sum")->is_null());
  std::string out;
  AppendJsonDouble(out, -INFINITY);
  EXPECT_EQ(out, "null");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").has_value());
  EXPECT_FALSE(ParseJson("[1,]").has_value());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(ParseJson("'single'").has_value());
}

TEST(JsonTest, DecodesUnicodeEscapesToUtf8) {
  // One, two, and three UTF-8 bytes from the BMP.
  auto json = ParseJson(R"("A=\u0041 \u00e9 \u20ac")");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsString(), "A=A \xC3\xA9 \xE2\x82\xAC");
  // A surrogate pair: U+1F600, four UTF-8 bytes.
  json = ParseJson(R"("\ud83d\ude00")");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsString(), "\xF0\x9F\x98\x80");
  // Escaped NUL embeds a real NUL (std::string carries it fine).
  json = ParseJson(R"("a\u0000b")");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsString(), std::string("a\0b", 3));
  // Case-insensitive hex digits.
  json = ParseJson(R"("\u20AC")");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->AsString(), "\xE2\x82\xAC");
}

TEST(JsonTest, RejectsLoneAndMalformedSurrogates) {
  EXPECT_FALSE(ParseJson(R"("\ud800")").has_value());        // lone high
  EXPECT_FALSE(ParseJson(R"("\ude00")").has_value());        // lone low
  EXPECT_FALSE(ParseJson(R"("\ud83d junk")").has_value());   // high, no pair
  EXPECT_FALSE(ParseJson(R"("\ud83dA")").has_value());  // high + non-low
  EXPECT_FALSE(ParseJson(R"("\u12g4")").has_value());        // bad hex digit
  EXPECT_FALSE(ParseJson(R"("\u12")").has_value());          // truncated
}

// --- resource probes ---------------------------------------------------------

TEST(ResourceTest, ProbesReportPlausibleValues) {
  const ResourceUsage usage = SampleResourceUsage();
  EXPECT_GE(usage.cpu_seconds(), 0.0);
#if defined(__linux__)
  EXPECT_GT(usage.rss_kb, 0);
  EXPECT_GE(usage.peak_rss_kb, usage.rss_kb);
  EXPECT_GE(usage.num_threads, 1);
#endif
}

// --- time-series JSONL round trip --------------------------------------------

TEST(MetricsJsonlTest, TimeSeriesSamplesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("sat.conflicts").Add(1);
  const MetricsSnapshot snapshot = registry.Snapshot();

  std::vector<TimeSeriesSample> samples(2);
  samples[0].timestamp_us = 100;
  samples[0].resources = {.rss_kb = 11,
                          .peak_rss_kb = 22,
                          .user_cpu_us = 33,
                          .sys_cpu_us = 44,
                          .num_threads = 5};
  samples[0].counters = {{"sat.conflicts", 9}};
  samples[0].gauges = {{"bmc.current_depth", 4}};
  samples[1].timestamp_us = 200;

  std::ostringstream out;
  WriteMetricsJsonl(out, snapshot, samples);
  const auto log = ReadMetricsLog(out.str());
  ASSERT_TRUE(log.has_value()) << out.str();
  ASSERT_EQ(log->samples.size(), 2u);
  const TimeSeriesSample& s0 = log->samples[0];
  EXPECT_EQ(s0.timestamp_us, 100u);
  EXPECT_EQ(s0.resources.rss_kb, 11);
  EXPECT_EQ(s0.resources.peak_rss_kb, 22);
  EXPECT_EQ(s0.resources.user_cpu_us, 33);
  EXPECT_EQ(s0.resources.sys_cpu_us, 44);
  EXPECT_EQ(s0.resources.num_threads, 5);
  ASSERT_EQ(s0.counters.size(), 1u);
  EXPECT_EQ(s0.counters[0].name, "sat.conflicts");
  EXPECT_EQ(s0.counters[0].value, 9u);
  ASSERT_EQ(s0.gauges.size(), 1u);
  EXPECT_EQ(s0.gauges[0].name, "bmc.current_depth");
  EXPECT_EQ(s0.gauges[0].value, 4);
  EXPECT_TRUE(log->samples[1].counters.empty());
  // The snapshot-only wrapper still loads files that carry samples.
  EXPECT_TRUE(ReadMetricsJsonl(out.str()).has_value());
}

// --- report ------------------------------------------------------------------

// A trace with one job span (entry/attempt at start, bug/frames at end) and
// one plain nested span, exported and re-parsed.
std::vector<ReportSpan> ReparsedSpans() {
  std::vector<TraceEvent> events(2);
  events[0].name = "sched.job:fifo/RB";
  events[0].begin_us = 1000;
  events[0].dur_us = 5000;
  events[0].tid = 1;
  events[0].args = {{{"entry", 0}, {"attempt", 0}, {"bug", 1}, {"frames", 4}}};
  events[0].num_args = 4;
  events[1].name = "bmc.solve_depth";
  events[1].begin_us = 1500;
  events[1].dur_us = 2000;
  events[1].tid = 2;
  std::ostringstream out;
  WriteChromeTrace(out, events);
  auto spans = ParseChromeTrace(out.str());
  EXPECT_TRUE(spans.has_value());
  return spans.value_or(std::vector<ReportSpan>{});
}

TEST(ReportTest, ChromeTraceRoundTripsThroughParseChromeTrace) {
  const std::vector<ReportSpan> spans = ReparsedSpans();
  ASSERT_EQ(spans.size(), 2u);  // thread_name metadata skipped
  const auto job = std::find_if(
      spans.begin(), spans.end(),
      [](const ReportSpan& s) { return s.name == "sched.job:fifo/RB"; });
  ASSERT_NE(job, spans.end());
  EXPECT_EQ(job->begin_us, 1000u);
  EXPECT_EQ(job->dur_us, 5000u);
  EXPECT_EQ(job->tid, 1u);
  EXPECT_EQ(job->args.at("bug"), 1);
  EXPECT_EQ(job->args.at("frames"), 4);
}

TEST(ReportTest, RejectsNonTraceInput) {
  EXPECT_FALSE(ParseChromeTrace("not json").has_value());
  EXPECT_FALSE(ParseChromeTrace("{\"noTraceEvents\":1}").has_value());
  EXPECT_FALSE(ParseChromeTrace("[1,2]").has_value());
}

TEST(ReportTest, RendersSelfContainedHtmlWithAllSections) {
  ReportData data;
  data.title = "unit <title> & co";
  data.spans = ReparsedSpans();
  data.metrics.snapshot.counters.push_back({"sat.conflicts", 42});
  data.metrics.snapshot.gauges.push_back({"bmc.depth_reached", 6});
  data.metrics.snapshot.histograms.push_back(
      {"sched.job_ms", {1.0, 10.0}, {2, 1, 0}, 3, 7.5});
  TimeSeriesSample sample;
  sample.timestamp_us = 2000;
  sample.resources.rss_kb = 1024;
  sample.gauges = {{"bmc.current_depth", 3}};
  data.metrics.samples = {sample, sample};

  const std::string html = RenderHtmlReport(data);
  // Self-contained: no scripts, no external references.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  // The title is HTML-escaped, not injected.
  EXPECT_NE(html.find("unit &lt;title&gt; &amp; co"), std::string::npos);
  EXPECT_EQ(html.find("<title> & co"), std::string::npos);
  // Verdict table: the job span's label and its BUG verdict.
  EXPECT_NE(html.find("fifo/RB"), std::string::npos);
  EXPECT_NE(html.find("BUG"), std::string::npos);
  // Charts and tables render.
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<polyline"), std::string::npos);
  EXPECT_NE(html.find("sched.job_ms"), std::string::npos);
  EXPECT_NE(html.find("sat.conflicts"), std::string::npos);
  EXPECT_NE(html.find("bmc.solve_depth"), std::string::npos);
}

TEST(ReportTest, RendersPlaceholdersWhenEitherInputIsMissing) {
  // Metrics only (no trace): still a document, with empty-state markers.
  ReportData metrics_only;
  metrics_only.metrics.snapshot.counters.push_back({"sat.solves", 1});
  std::string html = RenderHtmlReport(metrics_only);
  EXPECT_NE(html.find("no sched.job spans"), std::string::npos);
  EXPECT_NE(html.find("sat.solves"), std::string::npos);
  // Trace only (no metrics).
  ReportData trace_only;
  trace_only.spans = ReparsedSpans();
  html = RenderHtmlReport(trace_only);
  EXPECT_NE(html.find("no metrics snapshot"), std::string::npos);
  EXPECT_NE(html.find("fifo/RB"), std::string::npos);
}

}  // namespace
}  // namespace aqed::telemetry
