// In-memory span log for the benchmark's traced runs.
//
// The benchmark times calls into each layer's public functions from its own
// code (the verifier's sources stay untouched). Every span records its name,
// start, end, parent span and job id; the log is kept in memory and written
// out as JSON when the run ends. A span's self time is its duration minus
// the part of that interval its child spans cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aqed::perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name;  // a string literal: layer names are static
  int64_t parent;    // index of the parent span, -1 for a root
  uint64_t job;      // job id shared by every span of one job
  double begin;      // seconds on the steady clock
  double end;
};

class SpanLog {
 public:
  // Opens a span and returns its index. Safe to call from several threads.
  int64_t Begin(const char* name, int64_t parent, uint64_t job) {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, job, now, now});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Closes span `id`, optionally renaming it (e.g. once a solve's result is
  // known).
  void End(int64_t id, const char* rename = nullptr) {
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& span = spans_[static_cast<size_t>(id)];
    span.end = now;
    if (rename != nullptr) span.name = rename;
  }

  // A snapshot of every span recorded so far.
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Self time of every span, indexed like spans(): duration minus the union
  // of its children's intervals (children may overlap when they ran on
  // different threads).
  static std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].emplace_back(span.begin,
                                                                span.end);
      }
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      std::vector<std::pair<double, double>>& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0;
      double reach = spans[i].begin;
      for (const auto& [begin, end] : kids) {
        const double from = std::max(begin, reach);
        const double to = std::min(end, spans[i].end);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
      self[i] = std::max(0.0, spans[i].end - spans[i].begin - covered);
    }
    return self;
  }

  // Writes every span as a JSON array; times in microseconds from the
  // first span's start. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const {
    const std::vector<SpanRecord> all = spans();
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    const double origin = all.empty() ? 0 : all.front().begin;
    out << "[";
    char buf[256];
    for (size_t i = 0; i < all.size(); ++i) {
      const SpanRecord& s = all[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%lld,\"job\":%llu}",
                    i == 0 ? "" : ",", i, s.name, (s.begin - origin) * 1e6,
                    (s.end - origin) * 1e6, static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.job));
      out << buf;
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span over the rest of the enclosing scope. With a null log the span
// records nothing, so untraced and traced runs share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent, uint64_t job)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, job) : -1) {}
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

  // Closes the span now (idempotent), optionally renaming it.
  void End(const char* rename = nullptr) {
    if (log_ != nullptr) log_->End(id_, rename);
    log_ = nullptr;
  }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace aqed::perfbench
