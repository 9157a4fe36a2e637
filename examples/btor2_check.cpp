// Command-line model checker over BTOR2 files.
//
//   btor2_check [--kind] [--max-bound N] [--vcd out.vcd] design.btor2
//
// Loads a BTOR2 model (e.g. one produced by ir::ExportBtor2, or an external
// design), runs BMC on its bad properties, and prints the verdict;
// counterexamples can be written as VCD waveforms. With --kind each refuted
// depth is also the base case of k-induction, and a proof ends the run
// early (bmc::BmcOptions::prove).
// This is the adoption path for users who have designs in standard formats
// rather than in this library's C++ builder API.
//
// Exit codes: 0 clean or proved, 1 counterexample, 2 bad usage or input
// (a malformed --max-bound included), 3 unknown, 4 checker error (a
// counterexample that failed simulator replay).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bmc/engine.h"
#include "bmc/vcd.h"
#include "ir/btor2.h"

using namespace aqed;

int main(int argc, char** argv) {
  const bench::FlagParser flags(argc, argv);
  const bool prove =
      flags.Switch("--kind", "also try to prove the bads by k-induction");
  const uint32_t max_bound =
      flags.Uint32("--max-bound", 32, "frames to explore (at least 1)");
  const std::string vcd_path =
      flags.String("--vcd", {}, "write a counterexample waveform here");
  flags.RejectUnknown(argv[0]);
  const std::vector<std::string> positionals = flags.Positionals();
  if (positionals.size() != 1 || max_bound == 0) {
    std::fprintf(stderr,
                 "usage: %s [--kind] [--max-bound N] [--vcd out.vcd] "
                 "design.btor2\n",
                 argv[0]);
    return 2;
  }
  const std::string& input_path = positionals[0];

  std::ifstream in(input_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", input_path.c_str());
    return 2;
  }
  auto imported = ir::ImportBtor2(in);
  if (!imported.ok()) {
    std::fprintf(stderr, "error: %s\n", imported.status().message().c_str());
    return 2;
  }
  const auto& ts = *imported.value();
  if (const Status valid = ts.Validate(); !valid.ok()) {
    std::fprintf(stderr, "error: invalid model: %s\n",
                 valid.message().c_str());
    return 2;
  }
  if (ts.bads().empty()) {
    std::fprintf(stderr, "error: model declares no bad properties\n");
    return 2;
  }
  std::printf("%s: %u nodes, %zu inputs, %zu states, %zu bads\n",
              input_path.c_str(), ts.ctx().num_nodes(), ts.inputs().size(),
              ts.states().size(), ts.bads().size());

  bmc::BmcOptions options;
  options.max_bound = max_bound;
  options.prove = prove;
  const bmc::BmcResult result = RunBmc(ts, options);
  int exit_code = 0;
  switch (result.outcome) {
    case bmc::BmcResult::Outcome::kCounterexample:
      if (!result.trace_validated) {
        std::printf("CHECKER ERROR: counterexample failed simulator replay\n");
        return 4;
      }
      std::printf("COUNTEREXAMPLE: %s, %u cycles (%.3f s, %llu conflicts)\n",
                  result.trace.bad_label.c_str(), result.trace.length(),
                  result.seconds,
                  static_cast<unsigned long long>(result.conflicts));
      std::printf("%s", FormatTrace(ts, result.trace).c_str());
      exit_code = 1;
      break;
    case bmc::BmcResult::Outcome::kProved:
      std::printf("PROVED at k=%u (%.3f s)\n", result.frames_explored,
                  result.seconds);
      break;
    case bmc::BmcResult::Outcome::kBoundReached:
      std::printf("PASS up to bound %u (%.3f s, %llu conflicts)\n",
                  result.frames_explored, result.seconds,
                  static_cast<unsigned long long>(result.conflicts));
      break;
    case bmc::BmcResult::Outcome::kUnknown:
      std::printf("UNKNOWN (budget exhausted)\n");
      exit_code = 3;
      break;
  }

  if (result.found_bug() && !vcd_path.empty()) {
    std::ofstream vcd(vcd_path);
    bmc::WriteVcd(ts, result.trace, vcd);
    std::printf("waveform written to %s\n", vcd_path.c_str());
  }
  return exit_code;
}
