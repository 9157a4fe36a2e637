// Telemetry exporters.
//
// Chrome trace-event JSON: the drained span log serialized as complete
// ("ph":"X") events — load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing and every worker thread gets its own correctly-ordered
// row of nested spans. Timestamps are microseconds from process start on
// the steady clock, so spans from different threads line up.
//
// Metrics JSONL: one JSON object per line, one line per instrument, plus a
// leading snapshot-header line — append-friendly, greppable, and loadable
// with a three-line python loop. When the session flight recorder ran, the
// instrument lines are followed by a `timeseries` section: one "sample"
// line per flight-recorder sample (registry counters/gauges plus resource
// probes, recorded by sched/monitor.h). ReadMetricsLog() round-trips what
// WriteMetricsJsonl() emits (see tests/telemetry_test.cpp).
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/resource.h"
#include "telemetry/trace.h"

namespace aqed::telemetry {

// One flight-recorder sample: registry counters/gauges plus the resource
// probes at one instant. Histograms are deliberately not sampled — they are
// cumulative and land once in the final snapshot; per-sample bucket arrays
// would multiply the export size for no chart.
struct TimeSeriesSample {
  uint64_t timestamp_us = 0;  // NowMicros() at the sample
  ResourceUsage resources;
  std::vector<MetricsSnapshot::CounterValue> counters;
  std::vector<MetricsSnapshot::GaugeValue> gauges;
};

// Serializes `events` as a Chrome trace: {"traceEvents":[...]}. Events are
// written sorted by (tid, begin_us) — stable rows in viewers that honor
// file order — plus thread_name metadata so Perfetto labels the rows.
void WriteChromeTrace(std::ostream& out, std::span<const TraceEvent> events);

// One snapshot (plus an optional flight-recorder time series) as JSON Lines:
//   {"type":"snapshot","timestamp_us":...,"counters":N,...,"samples":N}
//   {"type":"counter","name":"sat.conflicts","value":123}
//   {"type":"gauge","name":"sched.pool.active","value":0}
//   {"type":"histogram","name":"sched.job_ms","bounds":[...],"counts":[...],
//    "count":N,"sum":S}
//   {"type":"sample","timestamp_us":...,"rss_kb":...,"peak_rss_kb":...,
//    "user_cpu_us":...,"sys_cpu_us":...,"threads":...,
//    "counters":{"name":v,...},"gauges":{"name":v,...}}
void WriteMetricsJsonl(std::ostream& out, const MetricsSnapshot& snapshot,
                       std::span<const TimeSeriesSample> samples = {});

// Everything one metrics JSONL file holds: the final snapshot plus the
// flight-recorder samples (empty when the sampler did not run).
struct MetricsLog {
  MetricsSnapshot snapshot;
  std::vector<TimeSeriesSample> samples;
};

// Parses WriteMetricsJsonl output back; nullopt on any malformed line or a
// missing header.
std::optional<MetricsLog> ReadMetricsLog(std::string_view text);

// Snapshot-only compatibility wrapper over ReadMetricsLog.
std::optional<MetricsSnapshot> ReadMetricsJsonl(std::string_view text);

// Prometheus text exposition (format version 0.0.4) of a snapshot:
//
//   # TYPE service_requests counter
//   service_requests 12
//   # TYPE sched_job_ms histogram
//   sched_job_ms_bucket{le="0.1"} 5
//   ...
//   sched_job_ms_bucket{le="+Inf"} 42
//   sched_job_ms_sum 1234.5
//   sched_job_ms_count 42
//
// Metric names are the registry names with every character outside
// [a-zA-Z0-9_:] mapped to '_' ("service.cache.hits" scrapes as
// service_cache_hits); no _total suffix is appended, so a name round-trips
// to its registry spelling by reversing the mapping. Counter values are
// printed as decimal integers — exact for the full uint64 range, unlike a
// JSON double — and histogram buckets are cumulative with the mandatory
// +Inf bucket, so `sum(..._bucket{le="+Inf"}) == ..._count` holds.
std::string RenderPrometheus(const MetricsSnapshot& snapshot);

// RenderPrometheus written via tmp+fsync+rename (a scraper must never see
// a torn exposition); false when the write fails. Failpoint
// "telemetry.export" applies, like the other file exporters.
bool WritePrometheusFile(const std::string& path,
                         const MetricsSnapshot& snapshot);

// File-writing conveniences; false (with no partial file guarantee beyond
// the OS's) when the path cannot be opened.
bool WriteChromeTraceFile(const std::string& path,
                          std::span<const TraceEvent> events);
bool WriteMetricsJsonlFile(const std::string& path,
                           const MetricsSnapshot& snapshot,
                           std::span<const TimeSeriesSample> samples = {});

}  // namespace aqed::telemetry
