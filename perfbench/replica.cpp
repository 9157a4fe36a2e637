#include "replica.h"

#include <memory>
#include <utility>

#include "bitblast/bitblaster.h"
#include "bitblast/gate_builder.h"
#include "bmc/trace.h"
#include "bmc/unroller.h"
#include "sat/solver.h"

namespace aqed::perfbench {

namespace {

// The bad predicates one instrumented property group adds, with the bug
// kind each reports (core::RunAqed's mapping).
using BadKinds = std::vector<std::pair<uint32_t, core::BugKind>>;

BadKinds Instrument(ir::TransitionSystem& ts,
                    const core::AcceleratorInterface& acc,
                    const core::AqedOptions& options) {
  BadKinds kinds;
  if (options.check_fc) {
    const core::FcInstrumentation fc = core::InstrumentFc(ts, acc, options.fc);
    kinds.emplace_back(fc.fc_bad_index, core::BugKind::kFunctionalConsistency);
    if (fc.has_early_output_bad) {
      kinds.emplace_back(fc.early_output_bad_index,
                         core::BugKind::kEarlyOutput);
    }
  }
  if (options.rb.has_value()) {
    core::RbOptions rb = *options.rb;
    if (rb.progress_qualifier == ir::kNullNode) {
      rb.progress_qualifier = acc.progress_qualifier;
    }
    const core::RbInstrumentation inst = core::InstrumentRb(ts, acc, rb);
    kinds.emplace_back(inst.rb_bad_index, core::BugKind::kResponseBound);
    if (inst.has_starve_bad) {
      kinds.emplace_back(inst.starve_bad_index,
                         core::BugKind::kInputStarvation);
    }
  }
  if (options.sac_spec.has_value()) {
    const core::SacInstrumentation sac =
        core::InstrumentSac(ts, acc, *options.sac_spec, options.sac);
    kinds.emplace_back(sac.sac_bad_index,
                       core::BugKind::kSingleActionCorrectness);
  }
  return kinds;
}

// The objects bmc::RunBmc builds, in its order; owned together so the
// traced job can time their release.
struct Engine {
  Engine(const ir::TransitionSystem& ts, const sat::Solver::Options& options)
      : solver(options), gates(solver), blaster(gates), unroller(ts, blaster) {}
  sat::Solver solver;
  bitblast::GateBuilder gates;
  bitblast::BitBlaster blaster;
  bmc::Unroller unroller;
};

const char* OutcomeName(bmc::BmcResult::Outcome outcome) {
  switch (outcome) {
    case bmc::BmcResult::Outcome::kCounterexample:
      return "counterexample";
    case bmc::BmcResult::Outcome::kBoundReached:
      return "clean";
    case bmc::BmcResult::Outcome::kUnknown:
      return "unknown";
  }
  return "?";
}

}  // namespace

std::vector<PropertyJob> ExpandJobs(const core::AcceleratorBuilder& build,
                                    const core::AqedOptions& options,
                                    const std::string& label) {
  std::vector<PropertyJob> jobs;
  const auto add = [&](core::AqedOptions group, uint32_t bound,
                       const char* property) {
    jobs.push_back({label.empty() ? property : label + "/" + property, build,
                    std::move(group),
                    bound != 0 ? bound : options.bmc.max_bound});
  };
  if (options.rb.has_value()) {
    core::AqedOptions rb_only = options;
    rb_only.check_fc = false;
    rb_only.sac_spec.reset();
    add(std::move(rb_only), options.rb_bound, "RB");
  }
  if (options.sac_spec.has_value()) {
    core::AqedOptions sac_only = options;
    sac_only.check_fc = false;
    sac_only.rb.reset();
    add(std::move(sac_only), options.sac_bound, "SAC");
  }
  if (options.check_fc) {
    core::AqedOptions fc_only = options;
    fc_only.rb.reset();
    fc_only.sac_spec.reset();
    add(std::move(fc_only), options.fc_bound, "FC");
  }
  return jobs;
}

Status PreflightJob(const PropertyJob& job) {
  ir::TransitionSystem ts;
  const core::AcceleratorInterface acc = job.build(ts);
  if (Instrument(ts, acc, job.options).empty()) {
    return Status::Error(job.label + ": no property instrumented");
  }
  const Status valid = ts.Validate();
  if (!valid.ok()) return Status::Error(job.label + ": " + valid.message());
  return Status::Ok();
}

ReplicaOutcome ReplicateJob(const PropertyJob& job, SpanLog& log,
                            uint64_t job_id) {
  ScopedSpan job_span(&log, "job", -1, job_id);
  const int64_t root = job_span.id();

  auto ts = std::make_unique<ir::TransitionSystem>();
  core::AcceleratorInterface acc;
  {
    ScopedSpan span(&log, "accel.build", root, job_id);
    acc = job.build(*ts);
  }
  BadKinds kinds;
  {
    ScopedSpan span(&log, "aqed.instrument", root, job_id);
    kinds = Instrument(*ts, acc, job.options);
  }

  // bmc::RunBmc's set-up: validation, solver, gate builder, unroller.
  ScopedSpan setup_span(&log, "bmc.setup", root, job_id);
  const bmc::BmcOptions& bmc_options = job.options.bmc;
  AQED_CHECK(ts->Validate().ok(), job.label + ": invalid instrumented system");
  auto engine = std::make_unique<Engine>(*ts, bmc_options.solver_options);
  sat::Solver& solver = engine->solver;
  bitblast::GateBuilder& gates = engine->gates;
  bmc::Unroller& unroller = engine->unroller;
  std::vector<uint32_t> targets = bmc_options.bad_filter;
  if (targets.empty()) {
    for (const auto& [bad_index, kind] : kinds) targets.push_back(bad_index);
  }
  setup_span.End();

  ReplicaOutcome out;
  bool refutation_complete = true;
  for (uint32_t depth = 0; depth < job.bound; ++depth) {
    std::vector<sat::Lit> bad_lits;
    {
      ScopedSpan span(&log, "bmc.unroll", root, job_id);
      unroller.AddFrame();
      bad_lits.reserve(targets.size());
      for (uint32_t bad_index : targets) {
        bad_lits.push_back(unroller.BadLit(depth, bad_index));
      }
    }
    out.frames = depth + 1;
    sat::Lit any_bad;
    {
      ScopedSpan span(&log, "bitblast.or_all", root, job_id);
      any_bad = gates.OrAll(bad_lits);
    }
    if (gates.IsFalse(any_bad)) continue;
    if (solver.inconsistent()) break;

    ScopedSpan solve_span(&log, "sat.solve", root, job_id);
    const sat::Lit assumptions[] = {any_bad};
    const uint64_t propagations = solver.stats().propagations;
    const sat::SolveResult result = solver.Solve(
        assumptions,
        sat::SolveLimits{.max_conflicts = bmc_options.conflict_budget});
    // Propagations inside Solve, as the solver's telemetry counts them.
    out.propagations += solver.stats().propagations - propagations;
    ++out.solves;
    if (result == sat::SolveResult::kUnknown) {
      solve_span.End("sat.solve_unknown");
      refutation_complete = false;
      continue;
    }
    if (result == sat::SolveResult::kUnsat) {
      solve_span.End("sat.solve_unsat");
      continue;
    }
    solve_span.End("sat.solve_sat");

    uint32_t hit = targets[0];
    for (uint32_t bad_index : targets) {
      if (solver.ModelValue(unroller.BadLit(depth, bad_index)) ==
          sat::LBool::kTrue) {
        hit = bad_index;
        break;
      }
    }
    bmc::Trace trace;
    {
      ScopedSpan span(&log, "bmc.extract_trace", root, job_id);
      trace = unroller.ExtractTrace(solver.model(), depth + 1, hit);
    }
    out.outcome = bmc::BmcResult::Outcome::kCounterexample;
    out.cex_cycles = trace.length();
    for (const auto& [bad_index, kind] : kinds) {
      if (bad_index == hit) {
        out.kind = kind;
        break;
      }
    }
    if (bmc_options.validate_counterexamples) {
      ScopedSpan span(&log, "sim.replay", root, job_id);
      out.trace_validated = bmc::ReplayTrace(*ts, trace);
      ++out.replays;
    }
    break;
  }
  if (out.outcome == bmc::BmcResult::Outcome::kBoundReached &&
      !refutation_complete) {
    out.outcome = bmc::BmcResult::Outcome::kUnknown;
  }
  out.conflicts = solver.stats().conflicts;
  out.decisions = solver.stats().decisions;
  out.clauses = solver.num_clauses();
  // Freeing the solver and the unrolled system is part of the job's cost.
  ScopedSpan teardown(&log, "bmc.teardown", root, job_id);
  engine.reset();
  ts.reset();
  return out;
}

std::string CompareWithJob(const ReplicaOutcome& replica,
                           const core::JobResult& job) {
  const bmc::BmcResult& bmc = job.result.bmc;
  std::string diff;
  const auto check = [&](bool same, const std::string& what) {
    if (same) return;
    if (!diff.empty()) diff += ", ";
    diff += what;
  };
  check(replica.outcome == bmc.outcome,
        std::string("verdict ") + OutcomeName(replica.outcome) + " vs " +
            OutcomeName(bmc.outcome));
  check(replica.kind == job.result.kind,
        std::string("kind ") + core::BugKindName(replica.kind) + " vs " +
            core::BugKindName(job.result.kind));
  check(replica.cex_cycles == bmc.trace.length() || !bmc.found_bug(),
        "cex length " + std::to_string(replica.cex_cycles) + " vs " +
            std::to_string(bmc.trace.length()));
  check(replica.conflicts == bmc.conflicts,
        "conflicts " + std::to_string(replica.conflicts) + " vs " +
            std::to_string(bmc.conflicts));
  check(replica.frames == bmc.frames_explored,
        "frames " + std::to_string(replica.frames) + " vs " +
            std::to_string(bmc.frames_explored));
  return diff.empty() ? diff : job.label + ": " + diff;
}

}  // namespace aqed::perfbench
