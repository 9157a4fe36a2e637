#include "telemetry/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "telemetry/json.h"

namespace aqed::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Small formatting helpers
// ---------------------------------------------------------------------------

std::string HtmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string Num(double value, const char* format = "%.2f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string Ms(uint64_t micros) { return Num(micros * 1e-3, "%.2f"); }

// ---------------------------------------------------------------------------
// Inline SVG charts
// ---------------------------------------------------------------------------

struct Point {
  double x;  // seconds from the first sample
  double y;
};

// A plain polyline chart: x in seconds, y in the series' own unit. Sized
// for side-by-side stacking in the report; min/max labels instead of full
// axes keep the markup small and dependency-free.
std::string RenderLineChart(const std::string& title, const char* unit,
                            const std::vector<Point>& points) {
  constexpr double kW = 680, kH = 180;
  constexpr double kL = 64, kR = 12, kT = 20, kB = 26;
  std::ostringstream svg;
  svg << "<figure class=\"chart\"><figcaption>" << HtmlEscape(title)
      << "</figcaption>";
  if (points.size() < 2) {
    svg << "<p class=\"empty\">no samples (enable "
           "SessionOptions::sample_period_ms)</p></figure>";
    return svg.str();
  }
  double xmin = points.front().x, xmax = points.front().x;
  double ymin = points.front().y, ymax = points.front().y;
  for (const Point& p : points) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  if (xmax <= xmin) xmax = xmin + 1e-6;
  if (ymax <= ymin) ymax = ymin + 1;
  const auto sx = [&](double x) {
    return kL + (x - xmin) / (xmax - xmin) * (kW - kL - kR);
  };
  const auto sy = [&](double y) {
    return kH - kB - (y - ymin) / (ymax - ymin) * (kH - kT - kB);
  };
  svg << "<svg viewBox=\"0 0 " << kW << ' ' << kH
      << "\" width=\"" << kW << "\" height=\"" << kH
      << "\" role=\"img\">";
  // Plot frame.
  svg << "<rect x=\"" << kL << "\" y=\"" << kT << "\" width=\""
      << kW - kL - kR << "\" height=\"" << kH - kT - kB
      << "\" class=\"frame\"/>";
  svg << "<polyline class=\"line\" points=\"";
  for (const Point& p : points) {
    svg << Num(sx(p.x), "%.1f") << ',' << Num(sy(p.y), "%.1f") << ' ';
  }
  svg << "\"/>";
  // Corner labels: y range on the left, x range along the bottom.
  svg << "<text x=\"" << kL - 6 << "\" y=\"" << kT + 10
      << "\" class=\"lbl\" text-anchor=\"end\">" << Num(ymax, "%.4g") << ' '
      << unit << "</text>";
  svg << "<text x=\"" << kL - 6 << "\" y=\"" << kH - kB
      << "\" class=\"lbl\" text-anchor=\"end\">" << Num(ymin, "%.4g")
      << "</text>";
  svg << "<text x=\"" << kL << "\" y=\"" << kH - 8
      << "\" class=\"lbl\">" << Num(xmin, "%.3g") << " s</text>";
  svg << "<text x=\"" << kW - kR << "\" y=\"" << kH - 8
      << "\" class=\"lbl\" text-anchor=\"end\">" << Num(xmax, "%.3g")
      << " s</text>";
  svg << "</svg></figure>";
  return svg.str();
}

// Latency histogram as an SVG bar row, one bar per bucket (last = +inf).
std::string RenderHistogram(const MetricsSnapshot::HistogramValue& histogram) {
  constexpr double kW = 680, kH = 140;
  constexpr double kL = 8, kR = 8, kT = 18, kB = 30;
  const size_t buckets = histogram.counts.size();
  std::ostringstream svg;
  const double avg =
      histogram.count > 0 ? histogram.sum / static_cast<double>(histogram.count)
                          : 0;
  // p50/p95/p99 come from the snapshot's derived fields (the JSONL parser
  // backfills them for old files), not recomputed from buckets here.
  svg << "<figure class=\"chart\"><figcaption>" << HtmlEscape(histogram.name)
      << " &mdash; " << histogram.count << " observations, avg "
      << Num(avg, "%.3g") << " ms, p50 " << Num(histogram.p50, "%.3g")
      << " / p95 " << Num(histogram.p95, "%.3g") << " / p99 "
      << Num(histogram.p99, "%.3g") << " ms</figcaption>";
  if (buckets == 0 || histogram.count == 0) {
    svg << "<p class=\"empty\">no observations</p></figure>";
    return svg.str();
  }
  uint64_t peak = 1;
  for (const uint64_t c : histogram.counts) peak = std::max(peak, c);
  const double bar_w = (kW - kL - kR) / static_cast<double>(buckets);
  svg << "<svg viewBox=\"0 0 " << kW << ' ' << kH << "\" width=\"" << kW
      << "\" height=\"" << kH << "\" role=\"img\">";
  for (size_t i = 0; i < buckets; ++i) {
    const double h = histogram.counts[i] * (kH - kT - kB) /
                     static_cast<double>(peak);
    const double x = kL + bar_w * static_cast<double>(i);
    const std::string upper =
        i < histogram.bounds.size() ? Num(histogram.bounds[i], "%.4g") + " ms"
                                    : std::string("+inf");
    svg << "<rect class=\"bar\" x=\"" << Num(x + 1, "%.1f") << "\" y=\""
        << Num(kH - kB - h, "%.1f") << "\" width=\""
        << Num(bar_w - 2, "%.1f") << "\" height=\"" << Num(h, "%.1f")
        << "\"><title>&le; " << upper << ": " << histogram.counts[i]
        << "</title></rect>";
    if (histogram.counts[i] > 0) {
      svg << "<text class=\"lbl\" text-anchor=\"middle\" x=\""
          << Num(x + bar_w / 2, "%.1f") << "\" y=\"" << kH - kB + 12
          << "\">" << upper << "</text>";
      svg << "<text class=\"lbl\" text-anchor=\"middle\" x=\""
          << Num(x + bar_w / 2, "%.1f") << "\" y=\""
          << Num(kH - kB - h - 4, "%.1f") << "\">" << histogram.counts[i]
          << "</text>";
    }
  }
  svg << "</svg></figure>";
  return svg.str();
}

// ---------------------------------------------------------------------------
// Time-series extraction
// ---------------------------------------------------------------------------

// The named gauge over the sample sequence; samples missing the gauge are
// skipped (a gauge appears the first time its layer records).
std::vector<Point> GaugeSeries(const std::vector<TimeSeriesSample>& samples,
                               std::string_view gauge, uint64_t epoch_us) {
  std::vector<Point> points;
  for (const TimeSeriesSample& sample : samples) {
    for (const auto& value : sample.gauges) {
      if (value.name == gauge) {
        points.push_back({(sample.timestamp_us - epoch_us) * 1e-6,
                          static_cast<double>(value.value)});
        break;
      }
    }
  }
  return points;
}

std::vector<Point> ResourceSeries(
    const std::vector<TimeSeriesSample>& samples, uint64_t epoch_us,
    int64_t ResourceUsage::* field, double scale) {
  std::vector<Point> points;
  points.reserve(samples.size());
  for (const TimeSeriesSample& sample : samples) {
    points.push_back({(sample.timestamp_us - epoch_us) * 1e-6,
                      static_cast<double>(sample.resources.*field) * scale});
  }
  return points;
}

int64_t FindArg(const ReportSpan& span, const std::string& key,
                int64_t fallback) {
  const auto it = span.args.find(key);
  return it == span.args.end() ? fallback : it->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// Chrome trace re-loading
// ---------------------------------------------------------------------------

std::optional<std::vector<ReportSpan>> ParseChromeTrace(
    std::string_view text) {
  const std::optional<Json> root = ParseJson(text);
  if (!root || !root->is_object()) return std::nullopt;
  const Json* events = root->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return std::nullopt;
  std::vector<ReportSpan> spans;
  for (const Json& event : events->AsArray()) {
    if (!event.is_object()) return std::nullopt;
    if (event.GetString("ph") != "X") {
      continue;  // metadata and non-complete events carry no duration
    }
    const std::optional<std::string> name = event.GetString("name");
    const std::optional<int64_t> ts = event.GetInt("ts", 0, INT64_MAX);
    const std::optional<int64_t> dur = event.GetInt("dur", 0, INT64_MAX);
    if (!name || !ts || !dur) return std::nullopt;
    ReportSpan span;
    span.name = *name;
    span.begin_us = static_cast<uint64_t>(*ts);
    span.dur_us = static_cast<uint64_t>(*dur);
    span.tid = static_cast<uint32_t>(
        event.GetInt("tid", 0, UINT32_MAX).value_or(0));
    if (const Json* args = event.Find("args"); args && args->is_object()) {
      for (const auto& [key, value] : args->AsObject()) {
        if (value.is_number()) span.args.emplace(key, value.AsInt());
      }
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

// ---------------------------------------------------------------------------
// HTML rendering
// ---------------------------------------------------------------------------

std::string RenderHtmlReport(const ReportData& data,
                             const ReportOptions& options) {
  std::ostringstream html;
  const std::vector<TimeSeriesSample>& samples = data.metrics.samples;

  // Session extent (for the header and the chart epochs): span extremes
  // when a trace is present, sample extremes otherwise.
  uint64_t begin_us = UINT64_MAX, end_us = 0;
  for (const ReportSpan& span : data.spans) {
    begin_us = std::min(begin_us, span.begin_us);
    end_us = std::max(end_us, span.begin_us + span.dur_us);
  }
  for (const TimeSeriesSample& sample : samples) {
    begin_us = std::min(begin_us, sample.timestamp_us);
    end_us = std::max(end_us, sample.timestamp_us);
  }
  if (begin_us == UINT64_MAX) begin_us = end_us = 0;

  html << "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
       << "<title>" << HtmlEscape(data.title) << "</title><style>\n"
       << "body{font:14px/1.45 system-ui,sans-serif;margin:24px auto;"
          "max-width:760px;color:#1a1a2e}\n"
       << "h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid #ccd;"
          "padding-bottom:4px;margin-top:28px}\n"
       << "table{border-collapse:collapse;width:100%;font-size:13px}\n"
       << "th,td{border:1px solid #dde;padding:3px 8px;text-align:left}\n"
       << "td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}\n"
       << "tr.bug td{background:#fde8e8}tr.err td{background:#fdf3e0}\n"
       << ".tiles{display:flex;flex-wrap:wrap;gap:12px;margin:12px 0}\n"
       << ".tile{border:1px solid #dde;border-radius:6px;padding:8px 14px}\n"
       << ".tile b{display:block;font-size:18px}\n"
       << ".chart{margin:14px 0}figcaption{font-weight:600;margin-bottom:4px}\n"
       << ".frame{fill:none;stroke:#ccd}.line{fill:none;stroke:#3459e6;"
          "stroke-width:1.5}\n"
       << ".bar{fill:#3459e6}.lbl{font-size:10px;fill:#555}\n"
       << ".empty{color:#888;font-style:italic}\n"
       << "</style></head><body>\n"
       << "<h1>" << HtmlEscape(data.title) << "</h1>\n";

  // --- summary tiles ---------------------------------------------------
  size_t threads = 0;
  {
    std::vector<uint32_t> tids;
    for (const ReportSpan& span : data.spans) tids.push_back(span.tid);
    std::sort(tids.begin(), tids.end());
    threads = static_cast<size_t>(
        std::unique(tids.begin(), tids.end()) - tids.begin());
  }
  html << "<div class=\"tiles\">";
  html << "<div class=\"tile\"><b>" << Num((end_us - begin_us) * 1e-6, "%.2f")
       << " s</b>session extent</div>";
  html << "<div class=\"tile\"><b>" << data.spans.size()
       << "</b>spans / " << threads << " threads</div>";
  html << "<div class=\"tile\"><b>" << samples.size()
       << "</b>flight-recorder samples</div>";
  if (!samples.empty()) {
    int64_t peak_rss = 0;
    for (const TimeSeriesSample& s : samples) {
      peak_rss = std::max(peak_rss, s.resources.peak_rss_kb);
    }
    const ResourceUsage& last = samples.back().resources;
    html << "<div class=\"tile\"><b>" << Num(peak_rss / 1024.0, "%.1f")
         << " MiB</b>peak RSS</div>";
    html << "<div class=\"tile\"><b>" << Num(last.cpu_seconds(), "%.2f")
         << " s</b>process CPU</div>";
  }
  html << "</div>\n";

  // --- verdict table ----------------------------------------------------
  // One row per executed job attempt: the sched.job:<label> spans carry
  // entry/attempt args at construction and bug/frames args at completion
  // (absent on cancelled jobs).
  html << "<h2>Jobs</h2>\n";
  std::vector<const ReportSpan*> jobs;
  for (const ReportSpan& span : data.spans) {
    if (span.name.rfind("sched.job:", 0) == 0) jobs.push_back(&span);
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const ReportSpan* a, const ReportSpan* b) {
                     return a->begin_us < b->begin_us;
                   });
  if (jobs.empty()) {
    html << "<p class=\"empty\">no sched.job spans in the trace</p>\n";
  } else {
    html << "<table><tr><th>job</th><th class=\"num\">entry</th>"
            "<th class=\"num\">attempt</th><th class=\"num\">start ms</th>"
            "<th class=\"num\">wall ms</th><th class=\"num\">frames</th>"
            "<th>verdict</th></tr>\n";
    for (const ReportSpan* job : jobs) {
      const int64_t bug = FindArg(*job, "bug", -1);
      const char* verdict = bug == 1 ? "BUG" : bug == 0 ? "clean" : "n/a";
      html << "<tr" << (bug == 1 ? " class=\"bug\"" : "") << "><td>"
           << HtmlEscape(job->name.substr(sizeof("sched.job:") - 1))
           << "</td><td class=\"num\">" << FindArg(*job, "entry", -1)
           << "</td><td class=\"num\">" << FindArg(*job, "attempt", 0)
           << "</td><td class=\"num\">" << Ms(job->begin_us - begin_us)
           << "</td><td class=\"num\">" << Ms(job->dur_us)
           << "</td><td class=\"num\">" << FindArg(*job, "frames", 0)
           << "</td><td>" << verdict << "</td></tr>\n";
    }
    html << "</table>\n";
  }

  // --- time-series charts ----------------------------------------------
  html << "<h2>Flight recorder</h2>\n";
  html << RenderLineChart("BMC depth vs time", "frames",
                          GaugeSeries(samples, "bmc.current_depth", begin_us))
       << '\n';
  html << RenderLineChart(
              "Resident set vs time", "MiB",
              ResourceSeries(samples, begin_us, &ResourceUsage::rss_kb,
                             1.0 / 1024.0))
       << '\n';
  if (!samples.empty()) {
    html << RenderLineChart(
                "SAT clauses vs time", "clauses",
                GaugeSeries(samples, "sat.clauses", begin_us))
         << '\n';
    html << RenderLineChart(
                "Scheduler queue depth vs time", "jobs",
                GaugeSeries(samples, "sched.queue_depth", begin_us))
         << '\n';
  }

  // --- latency histograms ----------------------------------------------
  html << "<h2>Latency histograms</h2>\n";
  if (data.metrics.snapshot.histograms.empty()) {
    html << "<p class=\"empty\">no histograms in the metrics snapshot</p>\n";
  }
  for (const auto& histogram : data.metrics.snapshot.histograms) {
    html << RenderHistogram(histogram) << '\n';
  }

  // --- top-N longest spans ---------------------------------------------
  html << "<h2>Longest spans</h2>\n";
  std::vector<const ReportSpan*> longest;
  longest.reserve(data.spans.size());
  for (const ReportSpan& span : data.spans) longest.push_back(&span);
  std::stable_sort(longest.begin(), longest.end(),
                   [](const ReportSpan* a, const ReportSpan* b) {
                     return a->dur_us > b->dur_us;
                   });
  if (longest.size() > options.top_spans) longest.resize(options.top_spans);
  if (longest.empty()) {
    html << "<p class=\"empty\">no spans</p>\n";
  } else {
    html << "<table><tr><th>span</th><th class=\"num\">tid</th>"
            "<th class=\"num\">start ms</th><th class=\"num\">wall ms</th>"
            "<th>args</th></tr>\n";
    for (const ReportSpan* span : longest) {
      html << "<tr><td>" << HtmlEscape(span->name) << "</td><td class=\"num\">"
           << span->tid << "</td><td class=\"num\">"
           << Ms(span->begin_us - begin_us) << "</td><td class=\"num\">"
           << Ms(span->dur_us) << "</td><td>";
      bool first = true;
      for (const auto& [key, value] : span->args) {
        if (!first) html << ", ";
        first = false;
        html << HtmlEscape(key) << "=" << value;
      }
      html << "</td></tr>\n";
    }
    html << "</table>\n";
  }

  // --- final counters / gauges -----------------------------------------
  html << "<h2>Final counters and gauges</h2>\n";
  if (data.metrics.snapshot.counters.empty() &&
      data.metrics.snapshot.gauges.empty()) {
    html << "<p class=\"empty\">no metrics snapshot</p>\n";
  } else {
    html << "<table><tr><th>instrument</th><th class=\"num\">value</th></tr>\n";
    for (const auto& counter : data.metrics.snapshot.counters) {
      html << "<tr><td>" << HtmlEscape(counter.name)
           << "</td><td class=\"num\">" << counter.value << "</td></tr>\n";
    }
    for (const auto& gauge : data.metrics.snapshot.gauges) {
      html << "<tr><td>" << HtmlEscape(gauge.name)
           << " (gauge)</td><td class=\"num\">" << gauge.value
           << "</td></tr>\n";
    }
    html << "</table>\n";
  }

  html << "</body></html>\n";
  return html.str();
}

bool WriteHtmlReportFile(const std::string& path, const ReportData& data,
                         const ReportOptions& options) {
  std::ofstream out(path);
  if (!out) return false;
  out << RenderHtmlReport(data, options);
  return static_cast<bool>(out);
}

}  // namespace aqed::telemetry
