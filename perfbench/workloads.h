// The benchmark's four workloads. Each is a closed loop: one caller issues
// verification calls back to back, with no think time. No workload sets a
// wall-clock deadline (only conflict budgets limit work) and first-bug-wins
// cancellation is used only where a single worker runs, so every pass of a
// workload does identical work and the spread between runs is host noise.
//
//   hunt      the memctrl bug catalog, one CheckAccelerator per bug
//   signoff   every clean catalog design, AES included, under its options
//   campaign  a fault campaign with a cold and a cache-warm pass, 2 workers
//   cube      the clean FIFO FC refutation at bound 9, cube escalation on
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "span_log.h"

namespace aqed::perfbench {

struct WorkloadConfig {
  uint64_t seed = 1;
  uint32_t campaign_workers = 2;
  uint32_t cube_workers = 4;  // min(4, nproc)
  std::string work_dir = ".";  // scratch files (the campaign's cache file)
};

// One pass of a workload's timed phase, measured with tracing off.
struct PassResult {
  double wall_seconds = 0;    // the whole timed phase
  double cpu_seconds = 0;     // ProcessCpuSeconds() over the same phase
  double verify_seconds = 0;  // wall time of the operations counted below
  int64_t attempted = 0;      // designs, property jobs or mutants
  int64_t failed = 0;         // UNKNOWN, checker error or wrong verdict
  std::vector<double> latency_ms;  // hunt: time to a validated cex, per bug
  uint64_t digest = 0;  // campaign: the classification digest
  std::vector<std::string> errors;  // one line per failed gate
};

// A traced run: per-layer metrics by name, plus its own correctness gates
// (the replica check, the self-time accounting).
struct TracedResult {
  std::map<std::string, double> layers;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first verification call: the design catalog or
  // mutant plan, a preflight build and instrumentation of every planned
  // job, sessions and caches. Each call starts over; timed as setup_s.
  virtual void Setup() = 0;
  // One pass of the timed phase. Requires Setup().
  virtual PassResult RunPass(uint32_t pass) = 0;
  // An untraced reference pass followed by the same work with spans and
  // telemetry counters. Requires Setup().
  virtual TracedResult RunTraced(SpanLog& log) = 0;
  // Passes per run at the least: three, so that a run's median is a median
  // even where a pass takes half the run (signoff on a slow host); hunt
  // needs four, for enough latency samples that ten lie beyond its p75.
  virtual uint32_t min_passes() const { return 3; }
  // The operation this workload counts, e.g. "bug" or "mutant".
  virtual const char* op_name() const = 0;
};

// User+sys processor time of every thread of the process, in seconds. A
// guest kernel that accounts steal time leaves out the time the hypervisor
// gave the processor to another machine, so on a shared host this measures
// the program's own work where wall time also measures the neighbours.
double ProcessCpuSeconds();

// nullptr for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

// The telemetry registry's counters by name, and the change of one counter
// between two such snapshots.
std::map<std::string, uint64_t> ReadCounters();
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);

}  // namespace aqed::perfbench
