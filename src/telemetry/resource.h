// Process resource probes: memory, CPU time, and thread count.
//
// The flight recorder (src/sched/monitor.h) samples these alongside the
// metrics registry so a session's time series carries the two axes the
// A-QED scaling literature actually plots — solver effort and memory
// footprint against wall time (BMC blow-up is a *resource* failure long
// before it is a wrong answer).
//
// Sources, cheapest sufficient first: getrusage(RUSAGE_SELF) for CPU time
// and the peak-RSS fallback, /proc/self/status (VmRSS / VmHWM / Threads)
// for current RSS, peak RSS, and thread count. A probe that cannot be read
// (non-Linux /proc, sandboxed build) reports 0 rather than failing — a
// flight recorder must never take the plane down.
#pragma once

#include <cstdint>

namespace aqed::telemetry {

struct ResourceUsage {
  int64_t rss_kb = 0;        // current resident set (VmRSS), KiB
  int64_t peak_rss_kb = 0;   // high-water resident set (VmHWM), KiB
  int64_t user_cpu_us = 0;   // process user CPU time, microseconds
  int64_t sys_cpu_us = 0;    // process system CPU time, microseconds
  int64_t num_threads = 0;   // live threads in the process

  double cpu_seconds() const {
    return static_cast<double>(user_cpu_us + sys_cpu_us) * 1e-6;
  }
};

// Reads the probes now. Unreadable fields are 0; never fails.
ResourceUsage SampleResourceUsage();

}  // namespace aqed::telemetry
