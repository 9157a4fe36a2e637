// Ablation C: SAT-solver feature contributions on A-QED BMC workloads. Each
// feature of the CDCL solver (VSIDS, phase saving, clause minimization,
// restarts, clause-database reduction) is toggled on two fixed loads: the
// clean FIFO configuration checked to bound 7 (an UNSAT-refutation-dominated
// load) and the lb_stale_accum bug hunt (a SAT-finding load). Each variant
// runs once per load and reports process CPU time and solver conflicts; the
// conflict counts are deterministic, the times are single-shot.
//
// Exits 1 if any variant reports a spurious counterexample on the clean
// load or misses the bug on the hunt.
#include <cstdio>

#include "bench_common.h"
#include "telemetry/resource.h"

using namespace aqed;

namespace {

struct Variant {
  const char* name;
  void (*apply)(sat::Solver::Options&);
};

constexpr Variant kVariants[] = {
    {"baseline", [](sat::Solver::Options&) {}},
    {"no_vsids", [](sat::Solver::Options& o) { o.use_vsids = false; }},
    {"no_phase_saving",
     [](sat::Solver::Options& o) { o.use_phase_saving = false; }},
    {"no_minimization",
     [](sat::Solver::Options& o) { o.use_minimization = false; }},
    {"no_restarts", [](sat::Solver::Options& o) { o.use_restarts = false; }},
    {"no_reduce_db", [](sat::Solver::Options& o) { o.use_reduce_db = false; }},
};

core::AqedOptions VariantOptions(const Variant& variant,
                                 accel::MemCtrlConfig config,
                                 uint32_t fc_bound) {
  core::AqedOptions options;
  core::RbOptions rb;
  rb.tau = accel::MemCtrlResponseBound(config);
  options.rb = rb;
  options.fc_bound = fc_bound;
  options.rb_bound = fc_bound;
  variant.apply(options.bmc.solver_options);
  return options;
}

struct Load {
  const char* name;
  accel::MemCtrlConfig config;
  accel::MemCtrlBug bug;
  uint32_t fc_bound;
  bool expect_bug;
};

constexpr Load kLoads[] = {
    // UNSAT-dominated load: the clean FIFO refuted up to bound 7.
    {"clean_fifo_refutation", accel::MemCtrlConfig::kFifo,
     accel::MemCtrlBug::kNone, 7, false},
    // SAT-finding load: hunting the lb_stale_accum bug.
    {"stale_accum_hunt", accel::MemCtrlConfig::kLineBuffer,
     accel::MemCtrlBug::kLbStaleAccum, 12, true},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::FlagParser flags(argc, argv);
  flags.RejectUnknown(argv[0]);
  printf("Ablation C: SAT-solver features on memory-controller BMC loads\n");
  bench::PrintRule('=');
  bool failed = false;
  for (const Load& load : kLoads) {
    printf("\n%s (bound %u):\n", load.name, load.fc_bound);
    printf("  %-18s %-10s %-12s %s\n", "variant", "cpu[ms]", "conflicts",
           "verdict");
    for (const Variant& variant : kVariants) {
      const double cpu_before = telemetry::SampleResourceUsage().cpu_seconds();
      const auto result = core::CheckAccelerator(
          [&](ir::TransitionSystem& ts) {
            return accel::BuildMemCtrl(ts, load.config, load.bug).acc;
          },
          VariantOptions(variant, load.config, load.fc_bound));
      const double cpu_ms =
          (telemetry::SampleResourceUsage().cpu_seconds() - cpu_before) * 1e3;
      const bool wrong = result.bug_found() != load.expect_bug;
      failed |= wrong;
      const char* note = !wrong           ? ""
                         : load.expect_bug ? "  <- MISSED BUG"
                                           : "  <- SPURIOUS COUNTEREXAMPLE";
      printf("  %-18s %-10.0f %-12llu %s%s\n", variant.name, cpu_ms,
             static_cast<unsigned long long>(result.conflicts()),
             result.bug_found() ? "bug" : "clean", note);
    }
  }
  bench::PrintRule();
  return failed ? 1 : 0;
}
