// A-QED benchmark program: runs one workload and prints its metrics.
//
//   aqed_perfbench --workload hunt|signoff|campaign|cube --seed N
//                  --seconds S --trace 0|1 [--work-dir DIR]
//                  [--spans-out FILE]
//   aqed_perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off: passes of the
// workload run back to back for about S seconds (at least min_passes()),
// each preceded and the last also followed by kSetupRuns set-ups, and
// per-pass and per-set-up times are reported as medians, with the peak
// resident set of the first pass. The gated times are processor times (ProcessCpuSeconds):
// on a shared host the hypervisor takes the processors away for stretches
// of seconds, which moves wall time by a fifth from run to run. Wall times
// are printed too.
// --trace 1 runs one untraced reference pass and the same work traced, and
// reports the per-layer metrics.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object with the run's settings, correctness counts and metrics. run.py
// (beside this file) builds the benchmark and reduces that line to the
// result format of BENCHMARK.json.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/resource.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

#ifndef AQED_PERFBENCH_BUILD_TYPE
#define AQED_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace aqed::perfbench;

namespace {

// Set-up takes 0.02-1.5 ms of processor time, so one sample says little; the
// median of many does. The host's speed wanders over seconds, so the samples
// are taken in rounds spread over the whole run, not in one burst at its
// start: a single burst of 101 spread by 41% of the median across ten runs.
constexpr int kSetupRuns = 25;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Every per-layer metric a traced run reports, with its unit. A layer a
// workload does not exercise reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"accel.build_ms", "ms"},
    {"aqed.instrument_ms", "ms"},
    {"bmc.unroll_ms", "ms"},
    {"bmc.frames", "count"},
    {"bitblast.clauses", "count"},
    {"sat.solve_sat_ms", "ms"},
    {"sat.solve_unsat_ms", "ms"},
    {"sat.solves", "count"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"},
    {"sim.replay_ms", "ms"},
    {"sim.replays", "count"},
    {"sched.jobs", "count"},
    {"sched.retries", "count"},
    {"sched.occupancy", "ratio"},
    {"cube.escalations", "count"},
    {"cube.cubes", "count"},
    {"cube.parallelism", "ratio"},
    {"cube.speedup", "ratio"},
    {"fault.mutants", "count"},
    {"fault.detected_ratio", "ratio"},
    {"service.cache.load_ms", "ms"},
    {"service.cache.lookup_ms", "ms"},
    {"service.cache.store_ms", "ms"},
    {"service.cache.save_ms", "ms"},
    {"service.cache.hit_ratio", "ratio"},
    {"service.cache.warm_pass_ms", "ms"},
    {"telemetry.overhead_ratio", "ratio"},
    {"trace.accounted_min", "ratio"},
};

// Linear interpolation between the closest ranks; q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(metrics[i].name) + ":{\"value\":" +
           Number(metrics[i].value) + ",\"unit\":" +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".";
  std::string spans_out;
  uint32_t cube_workers = 0;  // min(4, nproc)
  bool selftest = false;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "aqed_perfbench: %s\n"
               "usage: aqed_perfbench --workload hunt|signoff|campaign|cube "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--spans-out FILE]\n"
               "       aqed_perfbench --selftest\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 0);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (args.trace != 0 && args.trace != 1) Usage("--trace takes 0 or 1");
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag + ": " + value).c_str());
    }
  }
  args.cube_workers = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  return args;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;  // wall-clock and workload figures, not gated
  uint32_t passes = 0;
};

// Returns freed heap memory to the system and restarts the kernel's
// peak-RSS counter from the current resident set, so the first pass's peak
// is measured from what set-up left behind.
void ResetPeakRss() {
  malloc_trim(0);
  if (FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  return static_cast<double>(
             aqed::telemetry::SampleResourceUsage().peak_rss_kb) /
         1024.0;
}

Outcome MeasureEndToEnd(Workload& workload, const Args& args) {
  std::vector<double> setup;
  const auto setup_round = [&] {
    for (int i = 0; i < kSetupRuns; ++i) {
      const double start = ProcessCpuSeconds();
      workload.Setup();
      setup.push_back(ProcessCpuSeconds() - start);
    }
  };
  setup_round();

  Outcome out;
  std::vector<double> wall, cpu, rate, latency;
  // Peak RSS is that of the first pass. malloc_trim does not return the
  // free top of a worker thread's arena, so over later passes the peak
  // climbs with the allocator's history (cube: 41 MB over the first pass,
  // 80 MB by the seventh, with 0.1 MB in use between passes).
  double peak_rss_mb = 0;
  ResetPeakRss();
  const double start = NowSeconds();
  // A pass starts only when a typical pass would end nearer the end of the
  // window than the run ends now, so a run lasts about --seconds.
  while (out.passes < workload.min_passes() ||
         NowSeconds() - start + Median(wall) / 2 < args.seconds) {
    PassResult pass = workload.RunPass(out.passes++);
    if (out.passes == 1) peak_rss_mb = PeakRssMb();
    std::printf("pass %u: %.3f s wall, %.3f s cpu, %lld/%lld %s(s) failed\n",
                out.passes, pass.wall_seconds, pass.cpu_seconds,
                static_cast<long long>(pass.failed),
                static_cast<long long>(pass.attempted), workload.op_name());
    std::fflush(stdout);
    wall.push_back(pass.wall_seconds);
    cpu.push_back(pass.cpu_seconds);
    rate.push_back(static_cast<double>(pass.attempted) / pass.verify_seconds);
    latency.insert(latency.end(), pass.latency_ms.begin(),
                   pass.latency_ms.end());
    out.attempted += pass.attempted;
    out.failed += pass.failed;
    out.errors.insert(out.errors.end(), pass.errors.begin(),
                      pass.errors.end());
    setup_round();
  }

  out.metrics = {
      {"setup_s", Median(setup), "s"},
      {"cpu_s", Median(cpu), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  out.extra = {
      {"wall_s", Median(wall), "s"},
      {"ops_per_s", Median(rate), "1/s"},
  };
  if (!latency.empty()) {
    out.extra.push_back({"time_to_cex_p50_ms", Quantile(latency, 0.50), "ms"});
    out.extra.push_back({"time_to_cex_p75_ms", Quantile(latency, 0.75), "ms"});
    out.extra.push_back({"time_to_cex_samples",
                         static_cast<double>(latency.size()), "count"});
  }
  if (args.workload == "campaign") {
    out.extra.push_back({"mutants_per_s", Median(rate), "1/s"});
  }
  return out;
}

Outcome MeasureLayers(Workload& workload, const Args& args) {
  workload.Setup();
  SpanLog log;
  TracedResult traced = workload.RunTraced(log);
  Outcome out;
  out.passes = 1;
  out.attempted = traced.attempted;
  out.failed = traced.failed;
  out.errors = std::move(traced.errors);
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = traced.layers.find(name);
    out.metrics.push_back(
        {name, it == traced.layers.end() ? 0.0 : it->second, unit});
    if (it != traced.layers.end()) traced.layers.erase(it);
  }
  if (!traced.layers.empty()) {
    std::fprintf(stderr, "aqed_perfbench: layer metric %s is not declared\n",
                 traced.layers.begin()->first.c_str());
    std::exit(1);
  }
  if (!args.spans_out.empty() && !log.WriteJson(args.spans_out)) {
    out.errors.push_back("cannot write " + args.spans_out);
    ++out.failed;
  }
  return out;
}

// Deterministic work counts of one pass, read from the telemetry registry.
struct Work {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t digest = 0;
  int64_t failed = 0;
};

Work MeasureWork(Workload& workload, uint32_t pass) {
  const auto before = ReadCounters();
  aqed::telemetry::SetEnabled(true);
  const PassResult result = workload.RunPass(pass);
  aqed::telemetry::SetEnabled(false);
  const auto after = ReadCounters();
  return {CounterDelta(before, after, "sat.conflicts"),
          CounterDelta(before, after, "sat.decisions"),
          CounterDelta(before, after, "sat.propagations"), result.digest,
          result.failed};
}

// The determinism self-test: the work a workload does must not depend on
// the pass order, on the campaign's worker count, or on the number of cube
// workers — otherwise run-to-run spread would not be host noise alone.
int SelfTest(const Args& args) {
  int failures = 0;
  const auto report = [&](const std::string& what, const Work& a,
                          const Work& b, bool counts_only_conflicts) {
    const bool same =
        a.conflicts == b.conflicts && a.digest == b.digest &&
        a.failed == 0 && b.failed == 0 &&
        (counts_only_conflicts ||
         (a.decisions == b.decisions && a.propagations == b.propagations));
    std::printf("%s %s: conflicts %llu/%llu decisions %llu/%llu "
                "propagations %llu/%llu digest %016llx/%016llx\n",
                same ? "PASS" : "FAIL", what.c_str(),
                static_cast<unsigned long long>(a.conflicts),
                static_cast<unsigned long long>(b.conflicts),
                static_cast<unsigned long long>(a.decisions),
                static_cast<unsigned long long>(b.decisions),
                static_cast<unsigned long long>(a.propagations),
                static_cast<unsigned long long>(b.propagations),
                static_cast<unsigned long long>(a.digest),
                static_cast<unsigned long long>(b.digest));
    std::fflush(stdout);
    if (!same) ++failures;
  };
  WorkloadConfig config;
  config.seed = args.seed;
  config.work_dir = args.work_dir;
  config.cube_workers = args.cube_workers;
  for (const char* name : {"hunt", "signoff"}) {
    auto workload = MakeWorkload(name, config);
    workload->Setup();
    const Work first = MeasureWork(*workload, 0);
    const Work second = MeasureWork(*workload, 1);
    report(std::string(name) + " twice", first, second, false);
  }
  {
    WorkloadConfig one = config;
    one.campaign_workers = 1;
    auto serial = MakeWorkload("campaign", one);
    auto parallel = MakeWorkload("campaign", config);
    serial->Setup();
    parallel->Setup();
    report("campaign 1 vs 2 workers", MeasureWork(*serial, 0),
           MeasureWork(*parallel, 0), true);
  }
  {
    WorkloadConfig one = config;
    one.cube_workers = 1;
    auto serial = MakeWorkload("cube", one);
    auto parallel = MakeWorkload("cube", config);
    serial->Setup();
    parallel->Setup();
    report("cube 1 vs " + std::to_string(config.cube_workers) + " workers",
           MeasureWork(*serial, 0), MeasureWork(*parallel, 0), true);
  }
  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.selftest) return SelfTest(args);

  WorkloadConfig config;
  config.seed = args.seed;
  config.work_dir = args.work_dir;
  config.cube_workers = args.cube_workers;
  const std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, config);
  if (workload == nullptr) Usage("--workload must be hunt, signoff, campaign or cube");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload %s, seed %llu, %g s, trace %d, nproc %u, "
              "cube workers %u, build %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, nproc, args.cube_workers, AQED_PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  const Outcome out = args.trace == 0 ? MeasureEndToEnd(*workload, args)
                                      : MeasureLayers(*workload, args);
  for (const std::string& error : out.errors) {
    std::printf("FAILED %s\n", error.c_str());
  }
  PrintMetrics(args.trace == 0 ? "end-to-end metrics:" : "per-layer metrics:",
               out.metrics);
  if (!out.extra.empty()) PrintMetrics("workload metrics:", out.extra);
  std::printf("%lld/%lld operations failed over %u pass(es)\n",
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted), out.passes);

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%u,\"cube_workers\":%u,\"build_type\":%s,\"passes\":%u,"
      "\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s,"
      "\"extra\":%s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Number(args.seconds).c_str(),
      args.trace, nproc, args.cube_workers,
      JsonString(AQED_PERFBENCH_BUILD_TYPE).c_str(), out.passes,
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), MetricsJson(out.metrics).c_str(),
      MetricsJson(out.extra).c_str());
  return 0;
}
