#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "accel/memctrl.h"
#include "bmc/trace.h"
#include "fault/campaign.h"
#include "fault/mutator.h"
#include "replica.h"
#include "sched/session.h"
#include "service/cache.h"
#include "service/registry.h"
#include "support/rng.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::perfbench {

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> counters;
  for (const auto& counter :
       telemetry::MetricsRegistry::Global().Snapshot().counters) {
    counters[counter.name] = counter.value;
  }
  return counters;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  const auto get = [&](const std::map<std::string, uint64_t>& m) {
    const auto it = m.find(name);
    return it == m.end() ? uint64_t{0} : it->second;
  };
  return get(after) - get(before);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

// Aborts the run on a job the verifier cannot even build: that is a broken
// benchmark, not a verdict.
void Preflight(const std::vector<PropertyJob>& jobs) {
  for (const PropertyJob& job : jobs) {
    const Status status = PreflightJob(job);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: preflight failed: %s\n",
                   status.message().c_str());
      std::exit(1);
    }
  }
}

// Positions 0..n-1 in an order fixed by (seed, pass).
std::vector<size_t> Shuffled(size_t n, uint64_t seed, uint32_t pass) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + pass);
  for (size_t i = 0; i + 1 < n; ++i) {
    std::swap(order[i], order[i + rng.NextBelow(n - i)]);
  }
  return order;
}

// Arms telemetry for a traced phase and reads the registry counters
// around it.
class TelemetryWindow {
 public:
  TelemetryWindow() : before_(ReadCounters()) {
    telemetry::SetEnabled(true);
  }
  ~TelemetryWindow() { Close(); }

  TelemetryWindow(const TelemetryWindow&) = delete;
  TelemetryWindow& operator=(const TelemetryWindow&) = delete;

  void Close() {
    if (!open_) return;
    open_ = false;
    telemetry::SetEnabled(false);
    after_ = ReadCounters();
  }

  double Delta(const std::string& name) const {
    return static_cast<double>(CounterDelta(before_, after_, name));
  }

 private:
  bool open_ = true;
  std::map<std::string, uint64_t> before_;
  std::map<std::string, uint64_t> after_;
};

// One span of the verifier's own telemetry, as a session exports it.
struct VerifierSpan {
  std::string name;
  double ms = 0;
  int64_t result = -1;  // the "result" argument, when the span has one
};

// Reads the Chrome trace a session with SessionOptions::trace_path wrote.
// nullopt when the file is missing or malformed.
std::optional<std::vector<VerifierSpan>> ReadSessionTrace(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<telemetry::Json> root = telemetry::ParseJson(text.str());
  const telemetry::Json* events =
      root && root->is_object() ? root->Find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) return std::nullopt;
  std::vector<VerifierSpan> spans;
  for (const telemetry::Json& event : events->AsArray()) {
    const telemetry::Json* name = event.Find("name");
    const telemetry::Json* dur = event.Find("dur");
    if (name == nullptr || !name->is_string() || dur == nullptr ||
        !dur->is_number()) {
      continue;  // thread-name metadata
    }
    VerifierSpan span{name->AsString(), dur->AsNumber() * 1e-3, -1};
    if (const telemetry::Json* args = event.Find("args")) {
      if (const telemetry::Json* result = args->Find("result");
          result != nullptr && result->is_number()) {
        span.result = result->AsInt();
      }
    }
    spans.push_back(std::move(span));
  }
  std::remove(path.c_str());
  return spans;
}

// Folds the verifier's own telemetry (session spans and registry counters,
// recorded with telemetry armed) into the per-layer metrics. Span times are
// summed over threads.
void FoldTelemetry(const std::string& trace_path,
                   const TelemetryWindow& window, TracedResult& traced) {
  std::map<std::string, double>& layers = traced.layers;
  const std::optional<std::vector<VerifierSpan>> spans =
      ReadSessionTrace(trace_path);
  if (!spans) {
    ++traced.failed;
    traced.errors.push_back("cannot read the session trace " + trace_path);
    return;
  }
  double sat_ms = 0;
  for (const VerifierSpan& span : *spans) {
    if (span.name == "aqed.instrument") {
      layers["aqed.instrument_ms"] += span.ms;
    } else if (span.name == "bmc.unroll") {
      layers["bmc.unroll_ms"] += span.ms;
      layers["bmc.frames"] += 1;
    } else if (span.name == "bmc.replay") {
      layers["sim.replay_ms"] += span.ms;
      layers["sim.replays"] += 1;
    } else if (span.name == "sat.solve") {
      if (span.result == static_cast<int64_t>(sat::SolveResult::kSat)) {
        layers["sat.solve_sat_ms"] += span.ms;
      } else {
        layers["sat.solve_unsat_ms"] += span.ms;
      }
      sat_ms += span.ms;
    }
  }
  for (const char* name :
       {"sat.solves", "sat.conflicts", "sat.decisions", "sat.propagations"}) {
    layers[name] = window.Delta(name);
  }
  if (sat_ms > 0) {
    layers["sat.props_per_s"] =
        window.Delta("sat.propagations") / (sat_ms * 1e-3);
  }
}

// Per-layer metrics of a replicated session: self time by span name, the
// solver's work counts, and the share of each job's traced time that the
// named layers account for.
void FoldReplica(const SpanLog& log,
                 const std::vector<ReplicaOutcome>& outcomes,
                 TracedResult& traced) {
  const std::vector<SpanRecord> spans = log.spans();
  const std::vector<double> self = SpanLog::SelfTimes(spans);
  std::map<std::string, double>& layers = traced.layers;
  double min_accounted = 1.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double ms = self[i] * 1e3;
    if (name == "job") {
      const double total = spans[i].end - spans[i].begin;
      if (total > 0) min_accounted = std::min(min_accounted, 1 - self[i] / total);
    } else if (name == "accel.build") {
      layers["accel.build_ms"] += ms;
    } else if (name == "aqed.instrument") {
      layers["aqed.instrument_ms"] += ms;
    } else if (name == "bmc.unroll") {
      layers["bmc.unroll_ms"] += ms;
    } else if (name == "sat.solve_sat") {
      layers["sat.solve_sat_ms"] += ms;
    } else if (name == "sat.solve_unsat" || name == "sat.solve_unknown") {
      layers["sat.solve_unsat_ms"] += ms;
    } else if (name == "sim.replay") {
      layers["sim.replay_ms"] += ms;
    }
  }
  double propagations = 0;
  for (const ReplicaOutcome& o : outcomes) {
    layers["bmc.frames"] += o.frames;
    layers["bitblast.clauses"] += static_cast<double>(o.clauses);
    layers["sat.solves"] += static_cast<double>(o.solves);
    layers["sat.conflicts"] += static_cast<double>(o.conflicts);
    layers["sat.decisions"] += static_cast<double>(o.decisions);
    layers["sim.replays"] += static_cast<double>(o.replays);
    propagations += static_cast<double>(o.propagations);
  }
  layers["sat.propagations"] = propagations;
  const double sat_s =
      (layers["sat.solve_sat_ms"] + layers["sat.solve_unsat_ms"]) * 1e-3;
  if (sat_s > 0) layers["sat.props_per_s"] = propagations / sat_s;
  layers["trace.accounted_min"] = min_accounted;
  if (min_accounted < 0.95) {
    ++traced.failed;
    traced.errors.push_back("named layers account for only " +
                            std::to_string(min_accounted) +
                            " of a job's traced time (need 0.95)");
  }
}

// Summed duration in ms of the log's spans named `name` (over threads).
double SpanMs(const SpanLog& log, const char* name) {
  double ms = 0;
  for (const SpanRecord& span : log.spans()) {
    if (std::string_view(span.name) == name) ms += (span.end - span.begin) * 1e3;
  }
  return ms;
}

// Adds a pass's operations, failures and error lines to a traced run's.
void Absorb(const PassResult& pass, TracedResult& traced) {
  traced.attempted += pass.attempted;
  traced.failed += pass.failed;
  traced.errors.insert(traced.errors.end(), pass.errors.begin(),
                       pass.errors.end());
}

// Replays every job a reference session ran, in its order, through the
// traced pipeline, and checks each against its untraced result. Jobs the
// reference never started (first-bug-wins) are not replayed.
void TraceReplica(
    const std::vector<std::pair<PropertyJob, const core::JobResult*>>& plan,
    SpanLog& log, double reference_wall, TracedResult& traced) {
  std::vector<ReplicaOutcome> outcomes;
  const double start = NowSeconds();
  for (const auto& [job, reference] : plan) {
    if (reference->cancelled) continue;
    ++traced.attempted;
    outcomes.push_back(ReplicateJob(job, log, outcomes.size()));
    const std::string diff = CompareWithJob(outcomes.back(), *reference);
    if (!diff.empty()) {
      ++traced.failed;
      traced.errors.push_back("replica mismatch: " + diff);
    }
  }
  const double traced_wall = NowSeconds() - start;
  FoldReplica(log, outcomes, traced);
  traced.layers["telemetry.overhead_ratio"] = traced_wall / reference_wall;
}

// Scheduler metrics of untraced single-worker sessions.
void FoldSessions(const std::vector<const core::SessionResult*>& sessions,
                  std::map<std::string, double>& layers) {
  double busy = 0, wall = 0, jobs = 0, retries = 0;
  for (const core::SessionResult* session : sessions) {
    for (const JobStat& stat : session->stats.jobs()) {
      busy += stat.wall_seconds;
      if (!stat.cancelled) ++jobs;
    }
    retries += static_cast<double>(session->stats.num_retries());
    wall += session->wall_seconds;
  }
  layers["sched.jobs"] = jobs;
  layers["sched.retries"] = retries;
  if (wall > 0) layers["sched.occupancy"] = busy / wall;
}

// ---------------------------------------------------------------------------
// hunt: the memctrl bug catalog, one CheckAccelerator per bug, 1 worker,
// first-bug-wins per design.
// ---------------------------------------------------------------------------

class HuntWorkload final : public Workload {
 public:
  explicit HuntWorkload(WorkloadConfig config) : config_(std::move(config)) {}

  void Setup() override {
    cases_.clear();
    for (const accel::MemCtrlBugInfo& info : accel::MemCtrlBugCatalog()) {
      // Its single solve takes 19-41 s and would be most of every run.
      if (info.bug == accel::MemCtrlBug::kLbBackToBackLoad) continue;
      Case c{&info,
             [&info](ir::TransitionSystem& ts) {
               return accel::BuildMemCtrl(ts, info.config, info.bug).acc;
             },
             service::MemCtrlStudyOptions(info.config)};
      Preflight(ExpandJobs(c.build, c.options, info.name));
      cases_.push_back(std::move(c));
    }
  }

  PassResult RunPass(uint32_t pass) override { return Run(pass, nullptr); }

  TracedResult RunTraced(SpanLog& log) override {
    std::vector<core::SessionResult> reference;
    const PassResult untraced = Run(0, &reference);
    TracedResult traced;
    std::vector<std::pair<PropertyJob, const core::JobResult*>> plan;
    std::vector<const core::SessionResult*> sessions;
    for (size_t i : Shuffled(cases_.size(), config_.seed, 0)) {
      const Case& c = cases_[i];
      const std::vector<PropertyJob> jobs =
          ExpandJobs(c.build, c.options, c.info->name);
      AQED_CHECK(jobs.size() == reference[i].jobs.size(),
                 "hunt: job expansion differs from the session's");
      for (size_t k = 0; k < jobs.size(); ++k) {
        plan.emplace_back(jobs[k], &reference[i].jobs[k]);
      }
      sessions.push_back(&reference[i]);
    }
    TraceReplica(plan, log, untraced.wall_seconds, traced);
    FoldSessions(sessions, traced.layers);
    Absorb(untraced, traced);
    return traced;
  }

  uint32_t min_passes() const override { return 4; }
  const char* op_name() const override { return "bug"; }

 private:
  struct Case {
    const accel::MemCtrlBugInfo* info;
    core::AcceleratorBuilder build;
    core::AqedOptions options;
  };

  // One pass in the seed's order for `pass`. `keep` (optional) receives the
  // session results indexed like cases_.
  PassResult Run(uint32_t pass, std::vector<core::SessionResult>* keep) {
    core::SessionOptions session;
    session.jobs = 1;
    session.cancel = core::SessionOptions::CancelPolicy::kEntry;
    std::vector<core::SessionResult> results(cases_.size());
    PassResult out;
    const double cpu = ProcessCpuSeconds();
    const double start = NowSeconds();
    for (size_t i : Shuffled(cases_.size(), config_.seed, pass)) {
      const double call = NowSeconds();
      results[i] =
          core::CheckAccelerator(cases_[i].build, cases_[i].options, session);
      out.latency_ms.push_back((NowSeconds() - call) * 1e3);
    }
    out.wall_seconds = out.verify_seconds = NowSeconds() - start;
    out.cpu_seconds = ProcessCpuSeconds() - cpu;
    for (size_t i = 0; i < cases_.size(); ++i) Gate(cases_[i], results[i], out);
    if (keep != nullptr) *keep = std::move(results);
    return out;
  }

  // The bug is found, of the catalog's kind, and its trace replays.
  static void Gate(const Case& c, const core::SessionResult& result,
                   PassResult& out) {
    ++out.attempted;
    std::string error;
    const core::JobResult* bug = result.FirstBug(0);
    for (const core::JobResult& job : result.jobs) {
      if (job.checker_error) error = "checker error in " + job.label;
    }
    if (bug == nullptr) {
      if (error.empty()) error = "no bug found";
    } else {
      const core::BugKind kind = bug->result.kind;
      const bool rb = kind == core::BugKind::kResponseBound ||
                      kind == core::BugKind::kInputStarvation;
      const bool fc = kind == core::BugKind::kFunctionalConsistency ||
                      kind == core::BugKind::kEarlyOutput;
      if (c.info->rb_expected ? !rb : !fc) {
        error = std::string("found ") + core::BugKindName(kind) +
                ", expected " + (c.info->rb_expected ? "RB" : "FC");
      } else if (!bug->result.bmc.trace_validated ||
                 !bmc::ReplayTrace(*bug->ts, bug->result.bmc.trace)) {
        error = "counterexample does not replay on the simulator";
      }
    }
    if (!error.empty()) {
      ++out.failed;
      out.errors.push_back(std::string(c.info->name) + ": " + error);
    }
  }

  WorkloadConfig config_;
  std::vector<Case> cases_;
};

// ---------------------------------------------------------------------------
// signoff: every clean catalog design (AES included) under its catalog
// options, one session, 1 worker, no cancellation.
// ---------------------------------------------------------------------------

class SignoffWorkload final : public Workload {
 public:
  void Setup() override {
    service::CatalogOptions catalog;
    catalog.with_aes = true;
    designs_ = service::BuiltinDesigns(catalog);
    for (const fault::DesignUnderTest& d : designs_) {
      Preflight(ExpandJobs(d.build, d.options, d.name));
    }
  }

  PassResult RunPass(uint32_t) override { return Run(nullptr); }

  TracedResult RunTraced(SpanLog& log) override {
    core::SessionResult reference;
    const PassResult untraced = Run(&reference);
    TracedResult traced;
    std::vector<std::pair<PropertyJob, const core::JobResult*>> plan;
    for (const fault::DesignUnderTest& d : designs_) {
      for (PropertyJob& job : ExpandJobs(d.build, d.options, d.name)) {
        AQED_CHECK(plan.size() < reference.jobs.size() &&
                       reference.jobs[plan.size()].label == job.label,
                   "signoff: job expansion differs from the session's");
        const core::JobResult* ref = &reference.jobs[plan.size()];
        plan.emplace_back(std::move(job), ref);
      }
    }
    TraceReplica(plan, log, untraced.wall_seconds, traced);
    FoldSessions({&reference}, traced.layers);
    Absorb(untraced, traced);
    return traced;
  }

  const char* op_name() const override { return "property job"; }

 private:
  PassResult Run(core::SessionResult* keep) {
    core::SessionOptions options;
    options.jobs = 1;
    options.cancel = core::SessionOptions::CancelPolicy::kNone;
    sched::VerificationSession session(options);
    for (const fault::DesignUnderTest& d : designs_) {
      session.Enqueue(d.build, d.options, d.name);
    }
    PassResult out;
    const double cpu = ProcessCpuSeconds();
    const double start = NowSeconds();
    core::SessionResult result = session.Wait();
    out.wall_seconds = out.verify_seconds = NowSeconds() - start;
    out.cpu_seconds = ProcessCpuSeconds() - cpu;
    for (const core::JobResult& job : result.jobs) {
      ++out.attempted;
      std::string error;
      if (job.checker_error) {
        error = "checker error";
      } else if (job.result.bmc.outcome !=
                 bmc::BmcResult::Outcome::kBoundReached) {
        error = job.result.bug_found ? "bug found in a clean design"
                                     : "verdict UNKNOWN";
      }
      if (!error.empty()) {
        ++out.failed;
        out.errors.push_back(job.label + ": " + error);
      }
    }
    if (keep != nullptr) *keep = std::move(result);
    return out;
  }

  std::vector<fault::DesignUnderTest> designs_;
};

// ---------------------------------------------------------------------------
// campaign: a fault campaign over the catalog without AES, 2 workers. A
// cold pass stores every classification into a fresh solve cache; the cache
// is saved, loaded into a new cache, and a warm pass reads it.
// ---------------------------------------------------------------------------

// fault::CampaignCache wrapper timing each lookup and store.
class TimedCache final : public fault::CampaignCache {
 public:
  TimedCache(fault::CampaignCache& inner, SpanLog& log, int64_t parent)
      : inner_(inner), log_(log), parent_(parent) {}

  bool Lookup(const fault::DesignUnderTest& dut, const fault::MutantKey& key,
              fault::MutantReport& report) override {
    ScopedSpan span(&log_, "service.cache.lookup", parent_, 0);
    return inner_.Lookup(dut, key, report);
  }
  void Store(const fault::DesignUnderTest& dut, const fault::MutantKey& key,
             const fault::MutantReport& report) override {
    ScopedSpan span(&log_, "service.cache.store", parent_, 0);
    inner_.Store(dut, key, report);
  }

 private:
  fault::CampaignCache& inner_;
  SpanLog& log_;
  int64_t parent_;
};

class CampaignWorkload final : public Workload {
 public:
  // The campaign does not depend on the workload seed, so every run does
  // the same work. A seed-drawn sample of a few dozen mutants varies
  // several-fold in cost (two of the 57 dataflow mutants take ~9.5 s, the
  // median one 0.1 s), and even a seed-shuffled submission order moved the
  // 2-worker makespan by about 15% when a long job landed last.
  static constexpr uint64_t kMutantSeed = 0xA9EDFA17;
  static constexpr uint32_t kMutantsPerDesign = 4;
  // ClassificationDigest of that sample, as this benchmark first recorded
  // it. Equal digests <=> identical classifications.
  static constexpr uint64_t kRecordedDigest = 0xa2f0f0d0ebdd8637ull;

  explicit CampaignWorkload(WorkloadConfig config)
      : config_(std::move(config)) {}

  void Setup() override {
    service::CatalogOptions catalog;
    catalog.with_aes = false;
    designs_ = service::BuiltinDesigns(catalog);
    // The mutant plan, exactly as the campaign samples it.
    planned_ = 0;
    for (const fault::DesignUnderTest& d : designs_) {
      ir::TransitionSystem ts;
      const core::AcceleratorInterface acc = d.build(ts);
      planned_ +=
          fault::SampleMutants(ts, acc, kMutantSeed, kMutantsPerDesign).size();
    }
  }

  PassResult RunPass(uint32_t) override { return Run(nullptr, nullptr); }

  TracedResult RunTraced(SpanLog& log) override {
    const PassResult untraced = Run(nullptr, nullptr);
    TracedResult traced;
    TelemetryWindow window;
    const PassResult pass = Run(&log, &traced.layers);
    window.Close();
    FoldTelemetry(TracePath(), window, traced);
    std::map<std::string, double>& layers = traced.layers;
    layers["accel.build_ms"] = SpanMs(log, "accel.build");
    layers["service.cache.lookup_ms"] = SpanMs(log, "service.cache.lookup");
    layers["service.cache.store_ms"] = SpanMs(log, "service.cache.store");
    layers["service.cache.save_ms"] = SpanMs(log, "service.cache.save");
    layers["service.cache.load_ms"] = SpanMs(log, "service.cache.load");
    layers["service.cache.warm_pass_ms"] = SpanMs(log, "fault.campaign_warm");
    layers["telemetry.overhead_ratio"] =
        pass.wall_seconds / untraced.wall_seconds;
    Absorb(untraced, traced);
    Absorb(pass, traced);
    return traced;
  }

  const char* op_name() const override { return "mutant"; }

 private:
  std::string TracePath() const {
    return config_.work_dir + "/campaign-trace.json";
  }

  fault::FaultCampaignOptions Options() const {
    fault::FaultCampaignOptions options;
    options.seed = kMutantSeed;
    options.num_mutants =
        kMutantsPerDesign * static_cast<uint32_t>(designs_.size());
    options.session.jobs = config_.campaign_workers;
    return options;
  }

  // One pass: cold campaign, Save, Load, warm campaign. With `log` the
  // public calls are timed as spans and the design builders are wrapped;
  // `layers` then receives the fault, cache and scheduler metrics.
  PassResult Run(SpanLog* log, std::map<std::string, double>* layers) {
    const std::string path = config_.work_dir + "/campaign-cache.jsonl";
    std::remove(path.c_str());
    fault::FaultCampaignOptions options = Options();
    PassResult out;
    const double cpu = ProcessCpuSeconds();
    const double start = NowSeconds();

    ScopedSpan pass_span(log, "campaign.pass", -1, 0);
    const int64_t root = pass_span.id();

    service::SolveCache cold_cache;
    service::CampaignCacheAdapter cold_adapter(cold_cache);
    std::optional<TimedCache> cold_timed;
    std::vector<fault::DesignUnderTest> designs = designs_;
    fault::FaultCampaignResult cold;
    {
      ScopedSpan span(log, "fault.campaign_cold", root, 0);
      options.cache = &cold_adapter;
      if (log != nullptr) {
        const int64_t parent = span.id();
        for (fault::DesignUnderTest& d : designs) {
          d.build = [inner = d.build, log, parent](ir::TransitionSystem& ts) {
            ScopedSpan build(log, "accel.build", parent, 0);
            return inner(ts);
          };
        }
        cold_timed.emplace(cold_adapter, *log, parent);
        options.cache = &*cold_timed;
        options.session.trace_path = TracePath();
      }
      cold = fault::RunFaultCampaign(designs, options);
      options.session.trace_path.clear();
    }
    out.verify_seconds = NowSeconds() - start;
    Status saved = Status::Ok();
    {
      ScopedSpan span(log, "service.cache.save", root, 0);
      saved = cold_cache.Save(path);
    }
    service::SolveCache warm_cache;
    Status loaded = Status::Ok();
    {
      ScopedSpan span(log, "service.cache.load", root, 0);
      loaded = warm_cache.Load(path);
    }
    service::CampaignCacheAdapter warm_adapter(warm_cache);
    std::optional<TimedCache> warm_timed;
    fault::FaultCampaignResult warm;
    {
      ScopedSpan span(log, "fault.campaign_warm", root, 0);
      options.cache = &warm_adapter;
      if (log != nullptr) {
        warm_timed.emplace(warm_adapter, *log, span.id());
        options.cache = &*warm_timed;
      }
      warm = fault::RunFaultCampaign(designs, options);
    }
    out.wall_seconds = NowSeconds() - start;
    out.cpu_seconds = ProcessCpuSeconds() - cpu;
    pass_span.End();
    std::remove(path.c_str());

    out.digest = cold.ClassificationDigest();
    for (const fault::MutantReport& report : cold.mutants) {
      ++out.attempted;
      if (report.classification == fault::Classification::kUnknown) {
        ++out.failed;
        out.errors.push_back(report.design + "/" + report.key.ToString() +
                             ": verdict UNKNOWN");
      }
    }
    const auto fail_all = [&](const std::string& error) {
      out.failed = out.attempted;
      out.errors.push_back(error);
    };
    if (cold.mutants.size() != planned_) {
      fail_all("campaign classified " + std::to_string(cold.mutants.size()) +
               " mutants, planned " + std::to_string(planned_));
    }
    if (!saved.ok() || !loaded.ok()) {
      fail_all("cache round trip failed: " + saved.message() +
               loaded.message());
    }
    char digests[128];
    std::snprintf(digests, sizeof(digests),
                  "cold %016llx, warm %016llx, recorded %016llx",
                  static_cast<unsigned long long>(out.digest),
                  static_cast<unsigned long long>(warm.ClassificationDigest()),
                  static_cast<unsigned long long>(kRecordedDigest));
    if (warm.ClassificationDigest() != out.digest ||
        out.digest != kRecordedDigest) {
      fail_all(std::string("classification digests differ: ") + digests);
    }

    if (layers != nullptr) {
      std::map<std::string, double>& l = *layers;
      l["fault.mutants"] = static_cast<double>(cold.mutants.size());
      if (!cold.mutants.empty()) {
        l["fault.detected_ratio"] =
            static_cast<double>(cold.num_detected()) /
            static_cast<double>(cold.mutants.size());
      }
      l["service.cache.hit_ratio"] = warm_cache.hit_ratio();
      l["sched.jobs"] = static_cast<double>(cold.stats.num_jobs() +
                                            warm.stats.num_jobs());
      l["sched.retries"] = static_cast<double>(cold.stats.num_retries() +
                                               warm.stats.num_retries());
      if (cold.stats.wall_seconds() > 0) {
        l["sched.occupancy"] = cold.stats.serial_seconds() /
                               (cold.stats.wall_seconds() *
                                config_.campaign_workers);
      }
    }
    return out;
  }

  WorkloadConfig config_;
  std::vector<fault::DesignUnderTest> designs_;
  size_t planned_ = 0;
};

// ---------------------------------------------------------------------------
// cube: the clean FIFO FC refutation at bound 9 with cube-and-conquer
// escalation, 1 session worker, N cube workers.
// ---------------------------------------------------------------------------

class CubeWorkload final : public Workload {
 public:
  explicit CubeWorkload(WorkloadConfig config) : config_(std::move(config)) {}

  void Setup() override {
    build_ = [](ir::TransitionSystem& ts) {
      return accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo).acc;
    };
    options_ = OptionsWith(config_.cube_workers);
    Preflight(ExpandJobs(build_, options_, "fifo"));
  }

  PassResult RunPass(uint32_t) override {
    core::SessionResult result;
    return Run(build_, options_, &result);
  }

  TracedResult RunTraced(SpanLog& log) override {
    core::SessionResult reference;
    const PassResult untraced = Run(build_, options_, &reference);
    TracedResult traced;
    std::map<std::string, double>& layers = traced.layers;

    const std::string trace_path = config_.work_dir + "/cube-trace.json";
    core::SessionResult many;
    TelemetryWindow window;
    PassResult n_pass;
    {
      ScopedSpan span(&log, "check.cubes_n", -1, 0);
      const int64_t parent = span.id();
      const core::AcceleratorBuilder timed_build =
          [this, &log, parent](ir::TransitionSystem& ts) {
            ScopedSpan build(&log, "accel.build", parent, 0);
            return build_(ts);
          };
      n_pass = Run(timed_build, options_, &many, trace_path);
    }
    window.Close();
    FoldTelemetry(trace_path, window, traced);

    core::SessionResult one;
    PassResult one_pass;
    {
      ScopedSpan span(&log, "check.cubes_1", -1, 0);
      one_pass = Run(build_, OptionsWith(1), &one);
    }

    layers["accel.build_ms"] = SpanMs(log, "accel.build");
    const bmc::BmcResult& bmc = many.jobs.front().result.bmc;
    layers["bitblast.clauses"] = static_cast<double>(bmc.clauses);
    layers["cube.escalations"] = static_cast<double>(bmc.cube_escalations);
    layers["cube.cubes"] = static_cast<double>(bmc.cubes_solved);
    layers["cube.parallelism"] = n_pass.cpu_seconds / n_pass.wall_seconds;
    layers["cube.speedup"] = one_pass.wall_seconds / n_pass.wall_seconds;
    layers["sched.jobs"] = static_cast<double>(many.jobs.size());
    layers["sched.retries"] = static_cast<double>(many.stats.num_retries());
    layers["sched.occupancy"] =
        many.stats.serial_seconds() / many.stats.wall_seconds();
    layers["telemetry.overhead_ratio"] =
        n_pass.wall_seconds / untraced.wall_seconds;

    Absorb(untraced, traced);
    Absorb(n_pass, traced);
    Absorb(one_pass, traced);
    if (one.conflicts(0) != many.conflicts(0)) {
      ++traced.failed;
      traced.errors.push_back(
          "cube conflicts differ between 1 and N workers: " +
          std::to_string(one.conflicts(0)) + " vs " +
          std::to_string(many.conflicts(0)));
    }
    return traced;
  }

  const char* op_name() const override { return "refutation"; }

 private:
  static core::AqedOptions OptionsWith(uint32_t cube_workers) {
    bmc::BmcOptions::CubeEscalation cube;
    cube.conflict_threshold = 20000;
    cube.num_split_vars = 3;
    cube.jobs = cube_workers;
    return core::AqedOptions::Builder().WithBound(9).WithCubes(cube).Build();
  }

  PassResult Run(const core::AcceleratorBuilder& build,
                 const core::AqedOptions& options, core::SessionResult* keep,
                 std::string trace_path = {}) {
    core::SessionOptions session;
    session.jobs = 1;
    session.cancel = core::SessionOptions::CancelPolicy::kNone;
    session.trace_path = std::move(trace_path);
    PassResult out;
    const double cpu = ProcessCpuSeconds();
    const double start = NowSeconds();
    *keep = core::CheckAccelerator(build, options, session);
    out.wall_seconds = out.verify_seconds = NowSeconds() - start;
    out.cpu_seconds = ProcessCpuSeconds() - cpu;
    for (const core::JobResult& job : keep->jobs) {
      ++out.attempted;
      if (job.checker_error ||
          job.result.bmc.outcome != bmc::BmcResult::Outcome::kBoundReached) {
        ++out.failed;
        out.errors.push_back("fifo/" + job.label + ": not clean");
      }
    }
    return out;
  }

  WorkloadConfig config_;
  core::AcceleratorBuilder build_;
  core::AqedOptions options_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "hunt") return std::make_unique<HuntWorkload>(config);
  if (name == "signoff") return std::make_unique<SignoffWorkload>();
  if (name == "campaign") return std::make_unique<CampaignWorkload>(config);
  if (name == "cube") return std::make_unique<CubeWorkload>(config);
  return nullptr;
}

}  // namespace aqed::perfbench
