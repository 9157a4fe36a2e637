// Command-line model checker over BTOR2 files.
//
//   btor2_check [--kind] [--max-bound N] [--vcd out.vcd] design.btor2
//
// Loads a BTOR2 model (e.g. one produced by ir::ExportBtor2, or an external
// design), runs BMC (default) or k-induction (--kind) on its bad properties,
// and prints the verdict; counterexamples can be written as VCD waveforms.
// This is the adoption path for users who have designs in standard formats
// rather than in this library's C++ builder API.
//
// Exit codes: 0 clean, 1 counterexample, 2 bad usage or input, 3 unknown,
// 4 checker error (a counterexample that failed simulator replay).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bmc/engine.h"
#include "bmc/kinduction.h"
#include "bmc/vcd.h"
#include "ir/btor2.h"

using namespace aqed;

namespace {

int CheckerError() {
  std::printf("CHECKER ERROR: counterexample failed simulator replay\n");
  return 4;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kind] [--max-bound N] [--vcd out.vcd] "
               "design.btor2\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_kinduction = false;
  uint32_t max_bound = 32;
  std::string vcd_path;
  std::string input_path;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kind") == 0) {
      use_kinduction = true;
    } else if (std::strcmp(argv[i], "--max-bound") == 0 && i + 1 < argc) {
      max_bound = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--vcd") == 0 && i + 1 < argc) {
      vcd_path = argv[++i];
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else {
      input_path = argv[i];
    }
  }
  if (input_path.empty() || max_bound == 0) return Usage(argv[0]);

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

  const bmc::Trace* trace = nullptr;
  int exit_code = 0;
  bmc::BmcResult bmc_result;
  bmc::KInductionResult kind_result;
  if (use_kinduction) {
    bmc::KInductionOptions options;
    options.max_k = max_bound;
    kind_result = RunKInduction(ts, options);
    switch (kind_result.outcome) {
      case bmc::KInductionResult::Outcome::kProved:
        std::printf("PROVED at k=%u (%.3f s)\n", kind_result.k,
                    kind_result.seconds);
        break;
      case bmc::KInductionResult::Outcome::kCounterexample:
        if (!kind_result.trace_validated) return CheckerError();
        std::printf("COUNTEREXAMPLE: %s, %u cycles (%.3f s)\n",
                    kind_result.trace.bad_label.c_str(),
                    kind_result.trace.length(), kind_result.seconds);
        trace = &kind_result.trace;
        exit_code = 1;
        break;
      case bmc::KInductionResult::Outcome::kUnknown:
        std::printf("UNKNOWN: not %u-inductive (%.3f s)\n", max_bound,
                    kind_result.seconds);
        exit_code = 3;
        break;
    }
  } else {
    bmc::BmcOptions options;
    options.max_bound = max_bound;
    bmc_result = RunBmc(ts, options);
    switch (bmc_result.outcome) {
      case bmc::BmcResult::Outcome::kCounterexample:
        if (!bmc_result.trace_validated) return CheckerError();
        std::printf("COUNTEREXAMPLE: %s, %u cycles (%.3f s, %llu "
                    "conflicts)\n",
                    bmc_result.trace.bad_label.c_str(),
                    bmc_result.trace.length(), bmc_result.seconds,
                    static_cast<unsigned long long>(bmc_result.conflicts));
        std::printf("%s", FormatTrace(ts, bmc_result.trace).c_str());
        trace = &bmc_result.trace;
        exit_code = 1;
        break;
      case bmc::BmcResult::Outcome::kBoundReached:
        std::printf("PASS up to bound %u (%.3f s, %llu conflicts)\n",
                    bmc_result.frames_explored, bmc_result.seconds,
                    static_cast<unsigned long long>(bmc_result.conflicts));
        break;
      case bmc::BmcResult::Outcome::kUnknown:
        std::printf("UNKNOWN (budget exhausted)\n");
        exit_code = 3;
        break;
    }
  }

  if (trace != nullptr && !vcd_path.empty()) {
    std::ofstream vcd(vcd_path);
    bmc::WriteVcd(ts, *trace, vcd);
    std::printf("waveform written to %s\n", vcd_path.c_str());
  }
  return exit_code;
}
