// Ablation C: SAT-solver feature contributions on A-QED BMC workloads. Each
// feature of the CDCL solver (VSIDS, phase saving, clause minimization,
// restarts, clause-database reduction) is toggled on two fixed loads: the
// clean FIFO's FC refutation to bound 8 with its data lanes untied (an
// UNSAT-refutation load, the query BmcTest.UntiedFcWorkIsPinned pins) and
// the lb_stale_accum bug hunt (a SAT-finding load). Each variant runs once
// per load and reports process CPU time and solver conflicts; the conflict
// counts are deterministic, the times are single-shot. The refutation runs
// under a per-depth conflict budget above every depth of the other
// variants, so no_vsids (over a million conflicts unbudgeted) stops as
// "unknown (budget)" instead of taking minutes.
//
// Exits 1 if any variant reports a spurious counterexample on the clean
// load or misses the bug on the hunt.
#include <cstdio>

#include "aqed/fc_instrument.h"
#include "bench_common.h"
#include "bmc/engine.h"
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

// A load's verdict and its solver work.
struct LoadResult {
  bool bug_found;
  bool budget_stopped;
  uint64_t conflicts;
};

// Per-depth conflict budget of the refutation load. The other variants'
// whole runs stay below it (at most 22,369 conflicts).
constexpr int64_t kRefutationBudget = 30000;

// The clean FIFO's FC refutation to bound 8 with the DataPathHint's tied
// inputs cleared. Tied lanes make it too easy to tell the variants apart
// (725-966 conflicts at bound 7); free lanes take about 19.5k.
LoadResult UntiedFifoRefutation(const sat::Solver::Options& solver_options) {
  ir::TransitionSystem ts;
  const auto design = accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo);
  const core::FcInstrumentation fc = core::InstrumentFc(ts, design.acc);
  ir::TransitionSystem::DataPathHint hint = ts.data_path_hint();
  hint.tied_inputs.clear();
  ts.SetDataPathHint(std::move(hint));
  bmc::BmcOptions options;
  options.max_bound = 8;
  options.bad_filter = {fc.fc_bad_index};
  options.solver_options = solver_options;
  options.conflict_budget = kRefutationBudget;
  const bmc::BmcResult result = bmc::RunBmc(ts, options);
  return {result.found_bug(),
          result.unknown_reason == UnknownReason::kConflictBudget,
          result.conflicts};
}

// The lb_stale_accum bug hunt: FC and RB on the buggy line buffer.
LoadResult StaleAccumHunt(const sat::Solver::Options& solver_options) {
  constexpr accel::MemCtrlConfig kConfig = accel::MemCtrlConfig::kLineBuffer;
  core::AqedOptions options;
  core::RbOptions rb;
  rb.tau = accel::MemCtrlResponseBound(kConfig);
  options.rb = rb;
  options.fc_bound = 12;
  options.rb_bound = 12;
  options.bmc.solver_options = solver_options;
  const auto result = core::CheckAccelerator(
      [](ir::TransitionSystem& ts) {
        return accel::BuildMemCtrl(ts, kConfig,
                                   accel::MemCtrlBug::kLbStaleAccum)
            .acc;
      },
      options);
  return {result.bug_found(),
          result.unknown_reason() == UnknownReason::kConflictBudget,
          result.conflicts()};
}

struct Load {
  const char* name;
  uint32_t bound;
  LoadResult (*run)(const sat::Solver::Options&);
  bool expect_bug;
};

constexpr Load kLoads[] = {
    {"untied_fifo_refutation", 8, UntiedFifoRefutation, false},
    {"stale_accum_hunt", 12, StaleAccumHunt, true},
};

}  // namespace

int main(int argc, char** argv) {
  const bench::FlagParser flags(argc, argv);
  flags.RejectUnknown(argv[0]);
  printf("Ablation C: SAT-solver features on memory-controller BMC loads\n");
  bench::PrintRule('=');
  bool failed = false;
  for (const Load& load : kLoads) {
    printf("\n%s (bound %u):\n", load.name, load.bound);
    printf("  %-18s %-10s %-12s %s\n", "variant", "cpu[ms]", "conflicts",
           "verdict");
    for (const Variant& variant : kVariants) {
      sat::Solver::Options solver_options;
      variant.apply(solver_options);
      const double cpu_before = telemetry::SampleResourceUsage().cpu_seconds();
      const LoadResult result = load.run(solver_options);
      const double cpu_ms =
          (telemetry::SampleResourceUsage().cpu_seconds() - cpu_before) * 1e3;
      // A budget-stopped refutation is undecided, not wrong; a hunt must
      // still find its bug.
      const bool wrong = result.bug_found != load.expect_bug &&
                         !(result.budget_stopped && !load.expect_bug);
      failed |= wrong;
      const char* note = !wrong           ? ""
                         : load.expect_bug ? "  <- MISSED BUG"
                                           : "  <- SPURIOUS COUNTEREXAMPLE";
      const char* verdict = result.bug_found        ? "bug"
                            : result.budget_stopped ? "unknown (budget)"
                                                    : "clean";
      printf("  %-18s %-10.0f %-12llu %s%s\n", variant.name, cpu_ms,
             static_cast<unsigned long long>(result.conflicts), verdict,
             note);
    }
  }
  bench::PrintRule();
  return failed ? 1 : 0;
}
