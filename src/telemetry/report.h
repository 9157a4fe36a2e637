// Session report builder: merges a Chrome trace JSON and a metrics JSONL
// (snapshot + flight-recorder time series) into one self-contained HTML
// document — the human-readable end of the telemetry pipeline, rendered by
// the `aqed-report` tool (tools/report_main.cpp).
//
// The report answers the questions the raw files make you script for:
// which jobs ran and what they concluded (verdict table from the
// sched.job spans), where the latency mass sits (histogram charts), how
// BMC depth and RSS evolved over the run (time-series charts from the
// flight recorder), and which individual spans dominated (top-N table).
// Everything is inline CSS + inline SVG; the file opens anywhere, attaches
// to CI artifacts, and references nothing over the network.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/export.h"

namespace aqed::telemetry {

// One span re-loaded from a Chrome trace file. Unlike TraceEvent, the arg
// keys are owned strings — a parsed trace has no static literals to point
// into.
struct ReportSpan {
  std::string name;
  uint64_t begin_us = 0;
  uint64_t dur_us = 0;
  uint32_t tid = 0;
  std::map<std::string, int64_t> args;
};

// Parses a Chrome trace-event document (as written by WriteChromeTrace)
// back into spans; "M" metadata records are skipped. nullopt on input that
// is not a trace-event JSON object.
std::optional<std::vector<ReportSpan>> ParseChromeTrace(std::string_view text);

// Everything a report is rendered from. Either side may be empty: a trace
// without metrics still gets the verdict/top-span tables, metrics without
// a trace still get the charts.
struct ReportData {
  std::string title = "A-QED session report";
  std::vector<ReportSpan> spans;
  MetricsLog metrics;
};

struct ReportOptions {
  size_t top_spans = 20;  // rows in the longest-spans table
};

// Renders the report as one self-contained HTML document.
std::string RenderHtmlReport(const ReportData& data,
                             const ReportOptions& options = {});

// Convenience: renders and writes; false when the path cannot be opened.
bool WriteHtmlReportFile(const std::string& path, const ReportData& data,
                         const ReportOptions& options = {});

}  // namespace aqed::telemetry
