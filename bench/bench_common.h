// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "accel/memctrl.h"
#include "aqed/checker.h"
#include "harness/conventional_flow.h"
#include "service/registry.h"

namespace aqed::bench {

// Minimal command-line helper shared by the bench binaries. Every flag is
// either a bare switch (--cancel-session) or a --name VALUE pair; the last
// occurrence of a repeated flag wins. Each Switch()/Value() probe marks the
// arguments it matched, so after a main has declared its full flag set a
// final RejectUnknown() call turns any leftover --flag (a typo, or a flag
// from some other bench) into a hard error instead of silence.
//
// Probes also *register* their flag (with an optional one-line help text),
// so by the time RejectUnknown() runs the parser knows the binary's whole
// flag set: `--help` (or `-h`) anywhere on the command line prints it and
// exits 0.
class FlagParser {
 public:
  FlagParser(int argc, char** argv) : program_(argc > 0 ? argv[0] : "") {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
    used_.assign(args_.size(), 0);
  }

  // True iff the bare switch appears anywhere on the command line.
  bool Switch(std::string_view name, const char* help = nullptr) const {
    Register(name, /*takes_value=*/false, help);
    bool found = false;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        used_[i] = 1;
        found = true;
      }
    }
    return found;
  }

  // The value of the last `--name VALUE` occurrence, or nullptr.
  const std::string* Value(std::string_view name,
                           const char* help = nullptr) const {
    Register(name, /*takes_value=*/true, help);
    const std::string* found = nullptr;
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        used_[i] = used_[i + 1] = 1;
        found = &args_[i + 1];
      }
    }
    return found;
  }

  // True iff --name was given with a value (used for "an explicit flag
  // overrides the bench default" logic).
  bool Seen(std::string_view name) const { return Value(name) != nullptr; }

  // Numeric accessors accept decimal, 0x-hex, and octal (strtoull base 0).
  // An empty value, a sign, trailing garbage or a value out of range exits
  // with status 2, like an unknown flag in RejectUnknown().
  uint32_t Uint32(std::string_view name, uint32_t fallback,
                  const char* help = nullptr) const {
    return static_cast<uint32_t>(Unsigned(name, fallback, UINT32_MAX, help));
  }

  uint64_t Uint64(std::string_view name, uint64_t fallback,
                  const char* help = nullptr) const {
    return Unsigned(name, fallback, UINT64_MAX, help);
  }

  std::string String(std::string_view name, std::string fallback = {},
                     const char* help = nullptr) const {
    const std::string* v = Value(name, help);
    return v ? *v : fallback;
  }

  // Every registered flag, one per line, in probe order.
  void PrintHelp(const char* program) const {
    std::printf("usage: %s [flags]\n\nflags:\n", program);
    for (const Flag& flag : flags_) {
      std::string spelling = flag.name;
      if (flag.takes_value) spelling += " VALUE";
      std::printf("  %-28s %s\n", spelling.c_str(),
                  flag.help != nullptr ? flag.help : "");
    }
    std::printf("  %-28s %s\n", "--help", "print this help and exit 0");
  }

  // Call after every flag has been probed. `--help`/`-h` prints the
  // registered flag set and exits 0; otherwise any leftover `--something`
  // no Switch()/Value() call matched (a typo, or a flag from some other
  // bench) exits with status 2 instead of silence. Non-flag positional
  // arguments are left alone for Positionals() (a VALUE that happens to
  // follow an unknown flag is reported via its flag, not separately).
  void RejectUnknown(const char* program) const {
    for (const std::string& arg : args_) {
      if (arg == "--help" || arg == "-h") {
        PrintHelp(program);
        std::exit(0);
      }
    }
    bool bad = false;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i] && args_[i].rfind("--", 0) == 0) {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", program,
                     args_[i].c_str());
        used_[i] = 1;
        if (i + 1 < args_.size() && args_[i + 1].rfind("--", 0) != 0) {
          used_[i + 1] = 1;  // swallow the would-be VALUE of the bad flag
        }
        bad = true;
      }
    }
    if (bad) {
      std::fprintf(stderr, "%s: try '%s --help'\n", program, program);
      std::exit(2);
    }
  }

  // The arguments no probe matched, in order. Call it after
  // RejectUnknown(), once every flag has claimed its VALUE.
  std::vector<std::string> Positionals() const {
    std::vector<std::string> positionals;
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i]) positionals.push_back(args_[i]);
    }
    return positionals;
  }

 private:
  uint64_t Unsigned(std::string_view name, uint64_t fallback, uint64_t max,
                    const char* help) const {
    const std::string* v = Value(name, help);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v->c_str(), &end, 0);
    if (v->empty() || !std::isdigit(static_cast<unsigned char>((*v)[0])) ||
        *end != '\0' || errno == ERANGE || parsed > max) {
      std::fprintf(stderr, "%s: invalid value '%s' for %.*s\n",
                   program_.c_str(), v->c_str(), static_cast<int>(name.size()),
                   name.data());
      std::exit(2);
    }
    return parsed;
  }

  struct Flag {
    std::string name;
    bool takes_value;
    const char* help;
  };

  // First registration wins the position; a later probe of the same name
  // fills in help text the first one lacked (Seen() registers helplessly).
  void Register(std::string_view name, bool takes_value,
                const char* help) const {
    for (Flag& flag : flags_) {
      if (flag.name == name) {
        if (flag.help == nullptr) flag.help = help;
        return;
      }
    }
    flags_.push_back(Flag{std::string(name), takes_value, help});
  }

  std::string program_;
  std::vector<std::string> args_;
  mutable std::vector<char> used_;  // parallel to args_: matched by a probe
  mutable std::vector<Flag> flags_;  // registered by probes, for --help
};

// Registers + parses the scheduling and telemetry flags shared by every
// bench binary and tool:
//   --jobs N         worker threads for the verification session (default 1,
//                    0 = hardware concurrency)
//   --cancel-session
//                    first bug cancels the whole session, not just its entry
//   --deadline-ms N  per-job wall-clock deadline (0 = none)
//   --memory-budget-mb N
//                    process-RSS budget with staged degradation: learnt-
//                    clause shedding, cube-escalation throttling, then
//                    cancelling the heaviest job (0 = ungoverned)
//   --retries N      escalating-budget retries for inconclusive jobs
//   --trace-out P    write a Chrome trace-event JSON of the run's spans to P
//                    (load in Perfetto or chrome://tracing)
//   --metrics-out P  write a JSON Lines metrics snapshot to P
//   --sample-period-ms N
//                    flight-recorder sampling period while the session runs
//                    (0 = off); samples land in the metrics JSONL as the
//                    timeseries section and are plotted by aqed-report
// Setting either output path arms the process-wide telemetry switch. A
// bench that runs several sessions against the same path keeps the last
// session's file (each VerificationSession::Wait rewrites it).
//
// Callers construct the FlagParser themselves (so they can layer their own
// flags on top) and should finish with flags.RejectUnknown(argv[0]).
//
// The options are assembled through SessionOptions::Builder, so every bench
// gets the same coherence screening as API callers: `--jobs 0` maps to
// WithHardwareJobs() (the documented "all cores" spelling), and a flag
// combination the builder rejects (e.g. --sample-period-ms without
// --metrics-out) aborts with the builder's message instead of silently
// recording nothing.
inline core::SessionOptions AddSessionFlags(const FlagParser& flags) {
  core::SessionOptions::Builder builder;
  const uint32_t jobs = flags.Uint32(
      "--jobs", 1, "session worker threads (0 = hardware concurrency)");
  if (jobs == 0) {
    builder.WithHardwareJobs();
  } else {
    builder.WithJobs(jobs);
  }
  if (flags.Switch("--cancel-session",
                   "first bug cancels the whole session")) {
    builder.WithCancelPolicy(core::SessionOptions::CancelPolicy::kSession);
  }
  builder
      .WithDeadlineMs(flags.Uint32("--deadline-ms", 0,
                                   "per-job wall-clock deadline (0 = none)"))
      .WithMemoryBudgetMb(flags.Uint32(
          "--memory-budget-mb", 0,
          "process-RSS budget with staged degradation (0 = ungoverned)"))
      .WithRetries(flags.Uint32(
          "--retries", 0, "escalating-budget retries for inconclusive jobs"))
      .WithTracePath(flags.String(
          "--trace-out", {},
          "write a Chrome trace-event JSON of the run's spans here"))
      .WithMetricsPath(flags.String(
          "--metrics-out", {}, "write a JSON Lines metrics snapshot here"))
      .WithSamplePeriodMs(flags.Uint32(
          "--sample-period-ms", 0,
          "flight-recorder sampling period while the session runs (0 = off)"));
  return builder.Build();
}

// The memory-controller study/testbench options moved to the service design
// catalog (src/service/registry.h) so aqed-server assembles the exact same
// configurations; re-exported here for the table/figure binaries.
using service::MemCtrlConventionalOptions;
using service::MemCtrlStudyOptions;

inline void PrintRule(char c = '-', int n = 78) {
  for (int i = 0; i < n; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace aqed::bench
