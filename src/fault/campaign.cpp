#include "fault/campaign.h"

#include <algorithm>
#include <cstdio>
#include <span>
#include <unordered_map>

#include "fault/journal.h"
#include "sched/session.h"
#include "sched/thread_pool.h"
#include "support/record.h"
#include "support/status.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::fault {
namespace {

void CountClassified(Classification classification) {
  telemetry::AddCounter(
      std::string("fault.classified.") + ClassificationName(classification),
      1);
}

// Runs the conventional random-simulation baseline on one mutant and
// records it in the report.
void RunBaseline(const DesignUnderTest& dut, const MutantKey& key,
                 MutantReport& report) {
  TELEMETRY_SPAN("fault.baseline:" + dut.name + "/" + key.ToString());
  const harness::CampaignResult conventional =
      harness::RunCampaign(MutantBuilder(dut.build, key), dut.golden,
                           dut.conventional);
  report.golden_ran = true;
  report.golden_detected = conventional.bug_detected;
  report.golden_cycles = conventional.detection_cycle;
  report.golden_seconds = conventional.seconds;
}

// The replay map key: mutant keys are unique within a design, not across.
std::string ReplayKey(std::string_view design, const MutantKey& key) {
  return std::string(design) + "|" + key.ToString();
}

}  // namespace

EntryVerdict ClassifyEntry(const core::SessionResult& session_result,
                           size_t entry) {
  EntryVerdict verdict;  // kUnknown ranks below every detection
  bool undecided = false;
  for (const core::JobResult& job : session_result.jobs) {
    if (job.entry != entry) continue;
    verdict.attempts = std::max(verdict.attempts, job.attempt + 1);
    const UnknownReason reason = job.result.bmc.unknown_reason;
    if (job.result.bug_found) {
      const Classification c = ClassifyKind(job.result.kind);
      if (c < verdict.classification) {
        verdict.classification = c;
        verdict.kind = job.result.kind;
        verdict.cex_cycles = job.result.cex_cycles();
      }
    } else if (job.checker_error || reason != UnknownReason::kNone) {
      undecided = true;
      if (verdict.unknown_reason == UnknownReason::kNone) {
        verdict.unknown_reason = reason;
      }
    }
  }
  if (verdict.classification != Classification::kUnknown) {
    verdict.unknown_reason = UnknownReason::kNone;
  } else if (!undecided) {
    verdict.classification = Classification::kSurvived;
  }
  return verdict;
}

Classification ClassifyKind(core::BugKind kind) {
  switch (kind) {
    case core::BugKind::kFunctionalConsistency:
    case core::BugKind::kEarlyOutput:
      return Classification::kDetectedFc;
    case core::BugKind::kResponseBound:
    case core::BugKind::kInputStarvation:
      return Classification::kDetectedRb;
    case core::BugKind::kSingleActionCorrectness:
      return Classification::kDetectedSac;
    case core::BugKind::kNone:
      break;
  }
  return Classification::kSurvived;
}

const char* ClassificationName(Classification classification) {
  switch (classification) {
    case Classification::kDetectedFc: return "detected-by-FC";
    case Classification::kDetectedRb: return "detected-by-RB";
    case Classification::kDetectedSac: return "detected-by-SAC";
    case Classification::kSurvived: return "survived";
    case Classification::kUnknown: return "unknown";
  }
  return "?";
}

FaultCampaignResult RunFaultCampaign(std::span<const DesignUnderTest> designs,
                                     const FaultCampaignOptions& options) {
  Stopwatch watch;
  FaultCampaignResult result;
  if (designs.empty() || options.num_mutants == 0) return result;

  core::SessionOptions session_options = options.session;
  session_options.cancel = core::SessionOptions::CancelPolicy::kNone;
  sched::VerificationSession session(session_options);

  // Deterministic sampling first: the full mutant plan exists before any
  // verification runs, so a resumed campaign lines its journal records up
  // against the exact same plan the interrupted run had.
  struct Planned {
    size_t design;
    MutantKey key;
  };
  std::vector<Planned> plan;
  const size_t num_designs = designs.size();
  for (size_t d = 0; d < num_designs; ++d) {
    const uint32_t share = options.num_mutants / num_designs +
                           (d < options.num_mutants % num_designs ? 1 : 0);
    if (share == 0) continue;
    // The rounds enqueue single-property restrictions, which cannot tell
    // that the design's own options enable no property at all.
    const Status valid = designs[d].options.Validate();
    AQED_CHECK(valid.ok(), "RunFaultCampaign: " + designs[d].name + ": " +
                               valid.message());
    TELEMETRY_SPAN("fault.sample:" + designs[d].name,
                   {{"share", static_cast<int64_t>(share)}});
    ir::TransitionSystem scratch;
    const core::AcceleratorInterface acc = designs[d].build(scratch);
    for (const MutantKey& key :
         SampleMutants(scratch, acc, options.seed, share)) {
      plan.push_back({d, key});
    }
  }

  // Resume: replay the journal and index its records by (design, key).
  std::unordered_map<std::string, MutantReport> replayed;
  uint64_t keep_bytes = 0;
  if (options.resume && !options.journal_path.empty()) {
    StatusOr<JournalReplay> replay = ReplayJournal(options.journal_path);
    if (!replay.ok()) {
      std::fprintf(stderr, "[campaign] resume: %s; starting fresh\n",
                   replay.status().message().c_str());
    } else {
      JournalReplay r = std::move(replay).value();
      result.journal_skipped = r.skipped_records;
      result.journal_torn_tail = r.torn_tail;
      keep_bytes = r.valid_bytes;
      for (MutantReport& record : r.records) {
        replayed[ReplayKey(record.design, record.key)] = std::move(record);
      }
      if (r.torn_tail) {
        std::fprintf(stderr,
                     "[campaign] resume: dropped a torn trailing record in "
                     "%s\n",
                     options.journal_path.c_str());
      }
    }
  }

  ResultJournal journal;
  if (!options.journal_path.empty()) {
    // A fresh (non-resume) campaign restarts the journal from byte 0; a
    // resumed one keeps exactly the decodable prefix.
    const Status opened = journal.Open(options.journal_path, keep_bytes);
    // Failing to open the journal of a campaign that was asked to be
    // durable must be loud, not a silent downgrade to a volatile run.
    AQED_CHECK(opened.ok(), opened.message());
  }

  // Split the plan: journaled mutants are restored, the rest re-verified.
  result.mutants.resize(plan.size());
  std::vector<size_t> todo;
  todo.reserve(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    MutantReport& report = result.mutants[i];
    report.design = designs[plan[i].design].name;
    report.key = plan[i].key;
    // Fresh classifications carry this request's trace id; a journal replay
    // overwrites the whole report (keeping the id that solved it), and a
    // cache hit's Lookup installs the originating request's id.
    report.trace_id = options.trace_id;
    const auto it = replayed.find(ReplayKey(report.design, report.key));
    if (it != replayed.end()) {
      report = std::move(it->second);
      replayed.erase(it);
      ++result.resumed;
    } else if (options.cache != nullptr &&
               options.cache->Lookup(designs[plan[i].design], report.key,
                                     report)) {
      ++result.cache_hits;
      CountClassified(report.classification);
    } else {
      if (options.cache != nullptr) ++result.cache_misses;
      todo.push_back(i);
    }
  }

  // Journaled campaigns run in small batches — a few mutants per worker —
  // so records become durable steadily and a crash loses at most one
  // batch. Unjournaled campaigns verify the whole plan as one batch.
  const uint32_t workers = session_options.jobs == 0
                               ? sched::ThreadPool::HardwareJobs()
                               : session_options.jobs;
  const size_t batch_size =
      journal.is_open() ? std::max<size_t>(size_t{2} * workers, 8)
                        : std::max<size_t>(todo.size(), 1);
  double session_wall = 0;
  for (size_t begin = 0; begin < todo.size(); begin += batch_size) {
    const std::span<const size_t> batch(
        todo.data() + begin, std::min(batch_size, todo.size() - begin));
    // Precedence rounds, strongest property first (ClassifyKind's order):
    // FC for every mutant, RB for those FC did not detect, SAC for those
    // neither detected. A validated detection ends a mutant's chain, since
    // no later property can outrank it; a clean, inconclusive or
    // checker-error job does not. `executed` collects every job run, its
    // entry renumbered to the mutant's batch position, in FC, RB, SAC
    // order, so ClassifyEntry folds exactly what an all-jobs entry would
    // fold to.
    core::SessionResult executed;
    std::vector<bool> detected(batch.size(), false);
    for (const core::PropertyGroup group :
         {core::PropertyGroup::kFc, core::PropertyGroup::kRb,
          core::PropertyGroup::kSac}) {
      std::vector<size_t> members;  // batch positions verified this round
      for (size_t b = 0; b < batch.size(); ++b) {
        const Planned& planned = plan[batch[b]];
        const DesignUnderTest& dut = designs[planned.design];
        if (detected[b] || !core::Enables(dut.options, group)) continue;
        session.Enqueue(MutantBuilder(dut.build, planned.key),
                        core::RestrictTo(dut.options, group),
                        dut.name + "/" + planned.key.ToString());
        members.push_back(b);
      }
      if (members.empty()) continue;
      core::SessionResult round = session.Wait();
      session_wall += round.wall_seconds;
      for (const JobStat& stat : round.stats.jobs()) {
        result.stats.AddJob(stat);
      }
      // One job per restricted entry, in submission order.
      AQED_CHECK(round.jobs.size() == members.size(),
                 "campaign round: one job per restricted entry");
      for (size_t m = 0; m < members.size(); ++m) {
        core::JobResult& job = round.jobs[m];
        job.entry = members[m];
        job.ts.reset();  // the fold reads verdicts only
        if (job.result.bug_found) detected[members[m]] = true;
        executed.jobs.push_back(std::move(job));
      }
    }
    for (size_t b = 0; b < batch.size(); ++b) {
      const size_t i = batch[b];
      MutantReport& report = result.mutants[i];
      static_cast<EntryVerdict&>(report) = ClassifyEntry(executed, b);
      for (const core::JobResult& job : executed.jobs) {
        if (job.entry == b) report.wall_seconds += job.wall_seconds;
      }
      CountClassified(report.classification);
      if (options.cache != nullptr) {
        options.cache->Store(designs[plan[i].design], plan[i].key, report);
      }
    }
    // Baseline before journaling so the record a crash preserves carries
    // the golden columns too.
    if (options.conventional_baseline) {
      for (const size_t i : batch) {
        const DesignUnderTest& dut = designs[plan[i].design];
        if (!dut.golden) continue;
        RunBaseline(dut, plan[i].key, result.mutants[i]);
      }
    }
    if (journal.is_open()) {
      for (const size_t i : batch) {
        const Status appended = journal.Append(result.mutants[i]);
        if (!appended.ok()) {
          std::fprintf(stderr, "[campaign] %s\n",
                       appended.message().c_str());
        }
      }
    }
  }

  // Backfill baselines the interrupted run never reached on its resumed
  // mutants (their A-QED classification is journaled; golden columns may
  // not be). The final compaction rewrites them complete.
  if (options.conventional_baseline) {
    for (MutantReport& report : result.mutants) {
      if (report.golden_ran) continue;
      for (size_t d = 0; d < num_designs; ++d) {
        if (designs[d].name != report.design) continue;
        if (designs[d].golden) RunBaseline(designs[d], report.key, report);
        break;
      }
    }
  }

  if (journal.is_open()) {
    journal.Close();
    // Compaction: the artifact a finished campaign leaves is complete, in
    // plan order, free of skipped records and torn tails — and written
    // atomically, so even a crash right here leaves a valid journal.
    const Status rewritten =
        WriteJournalFile(options.journal_path, result.mutants);
    if (!rewritten.ok()) {
      std::fprintf(stderr, "[campaign] %s\n", rewritten.message().c_str());
    }
  }

  result.stats.set_wall_seconds(session_wall);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

size_t FaultCampaignResult::count(Classification classification) const {
  return static_cast<size_t>(
      std::count_if(mutants.begin(), mutants.end(),
                    [classification](const MutantReport& m) {
                      return m.classification == classification;
                    }));
}

size_t FaultCampaignResult::num_detected() const {
  return count(Classification::kDetectedFc) +
         count(Classification::kDetectedRb) +
         count(Classification::kDetectedSac);
}

double FaultCampaignResult::classified_fraction() const {
  if (mutants.empty()) return 1.0;
  return static_cast<double>(num_classified()) /
         static_cast<double>(mutants.size());
}

size_t FaultCampaignResult::num_silent_survivors() const {
  return static_cast<size_t>(
      std::count_if(mutants.begin(), mutants.end(), [](const MutantReport& m) {
        return m.golden_ran && m.golden_detected &&
               m.classification == Classification::kSurvived;
      }));
}

uint64_t FaultCampaignResult::ClassificationDigest() const {
  // Commutative sum of per-mutant FNV-1a hashes: identical classifications
  // give identical digests regardless of report order.
  uint64_t digest = 0;
  for (const MutantReport& m : mutants) {
    uint64_t hash = support::MixBytes(support::kFnvOffset, m.design);
    hash = support::MixBytes(hash, "|");
    hash = support::MixBytes(hash, m.key.ToString());
    hash = support::MixBytes(hash, "|");
    digest += support::MixBytes(hash, ClassificationName(m.classification));
  }
  return digest;
}

std::string FaultCampaignResult::ToTable() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %8s %5s %5s %5s %9s %8s %9s\n",
                "design", "mutants", "FC", "RB", "SAC", "survived", "unknown",
                "coverage");
  out += line;
  std::vector<std::string> names;
  for (const MutantReport& m : mutants) {
    if (std::find(names.begin(), names.end(), m.design) == names.end()) {
      names.push_back(m.design);
    }
  }
  names.push_back("");  // sentinel: the totals row aggregates every design
  for (const std::string& name : names) {
    size_t total = 0, fc = 0, rb = 0, sac = 0, survived = 0, unknown = 0;
    for (const MutantReport& m : mutants) {
      if (!name.empty() && m.design != name) continue;
      ++total;
      switch (m.classification) {
        case Classification::kDetectedFc: ++fc; break;
        case Classification::kDetectedRb: ++rb; break;
        case Classification::kDetectedSac: ++sac; break;
        case Classification::kSurvived: ++survived; break;
        case Classification::kUnknown: ++unknown; break;
      }
    }
    const double coverage =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(fc + rb + sac) /
                         static_cast<double>(total);
    std::snprintf(line, sizeof(line),
                  "%-18s %8zu %5zu %5zu %5zu %9zu %8zu %8.1f%%\n",
                  name.empty() ? "total" : name.c_str(), total, fc, rb, sac,
                  survived, unknown, coverage);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "%zu/%zu classified (%.1f%%), digest %016llx\n",
                num_classified(), mutants.size(),
                100.0 * classified_fraction(),
                static_cast<unsigned long long>(ClassificationDigest()));
  out += line;
  return out;
}

}  // namespace aqed::fault
