#include "telemetry/export.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "telemetry/json.h"

namespace aqed::telemetry {

namespace {

void WriteJsonString(std::ostream& out, std::string_view text) {
  std::string quoted;
  AppendJsonString(quoted, text);
  out << quoted;
}

void WriteJsonDouble(std::ostream& out, double value) {
  std::string number;
  AppendJsonDouble(number, value);
  out << number;
}

void WriteEvent(std::ostream& out, const TraceEvent& event) {
  out << "{\"name\":";
  WriteJsonString(out, event.name);
  out << ",\"cat\":\"aqed\",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
      << ",\"ts\":" << event.begin_us << ",\"dur\":" << event.dur_us;
  if (event.num_args > 0 || event.trace_id != 0) {
    out << ",\"args\":{";
    bool first = true;
    if (event.trace_id != 0) {
      // As a 16-hex string, not a JSON number: ids above 2^53 must survive
      // every double-based JSON reader between here and Perfetto.
      out << "\"trace_id\":\"" << support::Hex64(event.trace_id) << '"';
      first = false;
    }
    for (uint8_t i = 0; i < event.num_args; ++i) {
      if (!first) out << ',';
      first = false;
      WriteJsonString(out, event.args[i].key);
      out << ':' << event.args[i].value;
    }
    out << '}';
  }
  out << '}';
}

}  // namespace

void WriteChromeTrace(std::ostream& out, std::span<const TraceEvent> events) {
  std::vector<const TraceEvent*> sorted;
  sorted.reserve(events.size());
  for (const TraceEvent& event : events) sorted.push_back(&event);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->tid != b->tid ? a->tid < b->tid
                                             : a->begin_us < b->begin_us;
                   });

  out << "{\"traceEvents\":[";
  bool first = true;
  std::set<uint32_t> tids;
  for (const TraceEvent* event : sorted) tids.insert(event->tid);
  for (const uint32_t tid : tids) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"worker-" << tid << "\"}}";
  }
  for (const TraceEvent* event : sorted) {
    if (!first) out << ",\n";
    first = false;
    WriteEvent(out, *event);
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

namespace {

// {"name":value,...} over a counter/gauge value list.
template <typename Values>
void WriteNameValueObject(std::ostream& out, const Values& values) {
  out << '{';
  bool first = true;
  for (const auto& value : values) {
    if (!first) out << ',';
    first = false;
    WriteJsonString(out, value.name);
    out << ':' << value.value;
  }
  out << '}';
}

void WriteSample(std::ostream& out, const TimeSeriesSample& sample) {
  out << "{\"type\":\"sample\",\"timestamp_us\":" << sample.timestamp_us
      << ",\"rss_kb\":" << sample.resources.rss_kb
      << ",\"peak_rss_kb\":" << sample.resources.peak_rss_kb
      << ",\"user_cpu_us\":" << sample.resources.user_cpu_us
      << ",\"sys_cpu_us\":" << sample.resources.sys_cpu_us
      << ",\"threads\":" << sample.resources.num_threads << ",\"counters\":";
  WriteNameValueObject(out, sample.counters);
  out << ",\"gauges\":";
  WriteNameValueObject(out, sample.gauges);
  out << "}\n";
}

}  // namespace

void WriteMetricsJsonl(std::ostream& out, const MetricsSnapshot& snapshot,
                       std::span<const TimeSeriesSample> samples) {
  out << "{\"type\":\"snapshot\",\"timestamp_us\":" << snapshot.timestamp_us
      << ",\"counters\":" << snapshot.counters.size()
      << ",\"gauges\":" << snapshot.gauges.size()
      << ",\"histograms\":" << snapshot.histograms.size()
      << ",\"samples\":" << samples.size() << "}\n";
  for (const auto& counter : snapshot.counters) {
    out << "{\"type\":\"counter\",\"name\":";
    WriteJsonString(out, counter.name);
    out << ",\"value\":" << counter.value << "}\n";
  }
  for (const auto& gauge : snapshot.gauges) {
    out << "{\"type\":\"gauge\",\"name\":";
    WriteJsonString(out, gauge.name);
    out << ",\"value\":" << gauge.value << "}\n";
  }
  for (const auto& histogram : snapshot.histograms) {
    out << "{\"type\":\"histogram\",\"name\":";
    WriteJsonString(out, histogram.name);
    out << ",\"bounds\":[";
    for (size_t i = 0; i < histogram.bounds.size(); ++i) {
      if (i > 0) out << ',';
      WriteJsonDouble(out, histogram.bounds[i]);
    }
    out << "],\"counts\":[";
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out << ',';
      out << histogram.counts[i];
    }
    out << "],\"count\":" << histogram.count << ",\"sum\":";
    WriteJsonDouble(out, histogram.sum);
    out << ",\"p50\":";
    WriteJsonDouble(out, histogram.p50);
    out << ",\"p95\":";
    WriteJsonDouble(out, histogram.p95);
    out << ",\"p99\":";
    WriteJsonDouble(out, histogram.p99);
    out << "}\n";
  }
  for (const TimeSeriesSample& sample : samples) WriteSample(out, sample);
}

std::optional<MetricsLog> ReadMetricsLog(std::string_view text) {
  MetricsLog log;
  MetricsSnapshot& snapshot = log.snapshot;
  bool saw_header = false;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;

    const std::optional<Json> json = ParseJson(line);
    const std::optional<std::string> type =
        json ? json->GetString("type") : std::nullopt;
    if (!type) return std::nullopt;
    // Integer reads, not doubles: counters and gauges stay exact above
    // 2^53, where doubles would round.
    const auto number = [&](const char* key) {
      return json->GetInt(key, INT64_MIN, INT64_MAX);
    };

    if (*type == "snapshot") {
      const auto timestamp = number("timestamp_us");
      if (!timestamp) return std::nullopt;
      snapshot.timestamp_us = static_cast<uint64_t>(*timestamp);
      saw_header = true;
      continue;
    }

    if (*type == "sample") {
      TimeSeriesSample sample;
      const auto timestamp = number("timestamp_us");
      const Json* counters = json->Find("counters");
      const Json* gauges = json->Find("gauges");
      if (!timestamp || !counters || !counters->is_object() || !gauges ||
          !gauges->is_object()) {
        return std::nullopt;
      }
      sample.timestamp_us = static_cast<uint64_t>(*timestamp);
      ResourceUsage& resources = sample.resources;
      resources.rss_kb = number("rss_kb").value_or(0);
      resources.peak_rss_kb = number("peak_rss_kb").value_or(0);
      resources.user_cpu_us = number("user_cpu_us").value_or(0);
      resources.sys_cpu_us = number("sys_cpu_us").value_or(0);
      resources.num_threads = number("threads").value_or(0);
      for (const auto& [key, value] : counters->AsObject()) {
        if (!value.is_number()) return std::nullopt;
        sample.counters.push_back(
            {key, static_cast<uint64_t>(value.AsInt())});
      }
      for (const auto& [key, value] : gauges->AsObject()) {
        if (!value.is_number()) return std::nullopt;
        sample.gauges.push_back({key, value.AsInt()});
      }
      log.samples.push_back(std::move(sample));
      continue;
    }

    const std::optional<std::string> name = json->GetString("name");
    if (!name) return std::nullopt;
    if (*type == "counter" || *type == "gauge") {
      const auto value = number("value");
      if (!value) return std::nullopt;
      if (*type == "counter") {
        snapshot.counters.push_back({*name, static_cast<uint64_t>(*value)});
      } else {
        snapshot.gauges.push_back({*name, *value});
      }
    } else if (*type == "histogram") {
      const Json* bounds = json->Find("bounds");
      const Json* counts = json->Find("counts");
      const auto count = number("count");
      const auto sum = json->GetDouble("sum");
      if (!bounds || !bounds->is_array() || !counts || !counts->is_array() ||
          !count || !sum) {
        return std::nullopt;
      }
      MetricsSnapshot::HistogramValue value;
      value.name = *name;
      for (const Json& bound : bounds->AsArray()) {
        if (!bound.is_number()) return std::nullopt;
        value.bounds.push_back(bound.AsNumber());
      }
      for (const Json& bucket : counts->AsArray()) {
        if (!bucket.is_number()) return std::nullopt;
        value.counts.push_back(static_cast<uint64_t>(bucket.AsInt()));
      }
      value.count = static_cast<uint64_t>(*count);
      value.sum = *sum;
      // Quantiles: optional for files written before they existed — when
      // absent, derive them from the buckets so every reader sees them.
      const auto quantile = [&](const char* key, double q) {
        const std::optional<double> stored = json->GetDouble(key);
        return stored ? *stored
                      : HistogramQuantile(value.bounds, value.counts, q);
      };
      value.p50 = quantile("p50", 0.50);
      value.p95 = quantile("p95", 0.95);
      value.p99 = quantile("p99", 0.99);
      snapshot.histograms.push_back(std::move(value));
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header) return std::nullopt;
  return log;
}

std::optional<MetricsSnapshot> ReadMetricsJsonl(std::string_view text) {
  std::optional<MetricsLog> log = ReadMetricsLog(text);
  if (!log) return std::nullopt;
  return std::move(log->snapshot);
}

namespace {

// Registry names use dots; Prometheus names allow [a-zA-Z0-9_:]. The
// mapping is character-wise so it is trivially reversible for our names
// (none contain '_' before mangling except as '_' already).
std::string PrometheusName(std::string_view name) {
  // Names may not start with a digit (or be empty): prefix a '_' first.
  std::string out = name.empty() || (name[0] >= '0' && name[0] <= '9')
                        ? "_"
                        : "";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// `le` labels use %.17g so a bound like 0.1 round-trips through strtod
// exactly, matching the JSONL exporter's double policy.
void AppendPrometheusDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  char buf[48];
  for (const auto& counter : snapshot.counters) {
    const std::string name = PrometheusName(counter.name);
    out += "# TYPE " + name + " counter\n";
    out += name;
    // Decimal integer, not a double: exact for the full uint64 range.
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(counter.value));
    out += buf;
  }
  for (const auto& gauge : snapshot.gauges) {
    const std::string name = PrometheusName(gauge.name);
    out += "# TYPE " + name + " gauge\n";
    out += name;
    std::snprintf(buf, sizeof(buf), " %lld\n",
                  static_cast<long long>(gauge.value));
    out += buf;
  }
  for (const auto& histogram : snapshot.histograms) {
    const std::string name = PrometheusName(histogram.name);
    out += "# TYPE " + name + " histogram\n";
    // Buckets are cumulative on the wire (ours are per-bucket), ending in
    // the mandatory +Inf bucket that equals _count.
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram.counts.size(); ++i) {
      cumulative += histogram.counts[i];
      out += name + "_bucket{le=\"";
      if (i < histogram.bounds.size()) {
        AppendPrometheusDouble(out, histogram.bounds[i]);
      } else {
        out += "+Inf";
      }
      std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                    static_cast<unsigned long long>(cumulative));
      out += buf;
    }
    out += name + "_sum ";
    AppendPrometheusDouble(out, histogram.sum);
    out += '\n';
    out += name + "_count ";
    std::snprintf(buf, sizeof(buf), "%llu\n",
                  static_cast<unsigned long long>(histogram.count));
    out += buf;
  }
  return out;
}

bool WritePrometheusFile(const std::string& path,
                         const MetricsSnapshot& snapshot) {
  if (AQED_FAILPOINT("telemetry.export")) return false;
  return support::WriteFileDurable(path, RenderPrometheus(snapshot)).ok();
}

bool WriteChromeTraceFile(const std::string& path,
                          std::span<const TraceEvent> events) {
  // Chaos site: simulated export failure, so callers' error surfacing is
  // testable without a read-only filesystem.
  if (AQED_FAILPOINT("telemetry.export")) return false;
  // Serialize in memory, then tmp+fsync+rename: a crash (or full disk)
  // mid-export leaves the previous trace intact, never a truncated JSON.
  std::ostringstream out;
  WriteChromeTrace(out, events);
  if (!out) return false;
  return support::WriteFileDurable(path, out.view()).ok();
}

bool WriteMetricsJsonlFile(const std::string& path,
                           const MetricsSnapshot& snapshot,
                           std::span<const TimeSeriesSample> samples) {
  if (AQED_FAILPOINT("telemetry.export")) return false;
  std::ostringstream out;
  WriteMetricsJsonl(out, snapshot, samples);
  if (!out) return false;
  return support::WriteFileDurable(path, out.view()).ok();
}

}  // namespace aqed::telemetry
