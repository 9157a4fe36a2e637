// Fault-injection campaign driver.
//
// A FaultCampaign is the systematic version of the paper's injected-bug
// study (Table 1 / Fig. 5): sample a seeded set of mutants per design,
// verify every mutant with the A-QED property suite on the parallel
// verification session, strongest property first and stopping at its first
// detection, and classify each one as detected-by-FC /
// detected-by-RB / detected-by-SAC / survived / unknown — optionally
// running the conventional random-simulation flow on the same mutants for
// an apples-to-apples detection baseline (the golden-model diff).
//
// Campaigns are the workload the resource-governance layer exists for:
// thousands of independent jobs, most trivial, a few pathological. The
// session's per-job deadlines and escalating-budget retries bound the cost
// of the pathological ones; classifications stay deterministic across
// worker counts because every per-job verdict is.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aqed/checker.h"
#include "fault/mutator.h"
#include "harness/conventional_flow.h"
#include "support/stats.h"

namespace aqed::fault {

// One design enrolled in a campaign: its builder, the A-QED property
// options to verify each mutant with, and (optionally) a golden functional
// model enabling the conventional-flow baseline on its mutants.
struct DesignUnderTest {
  std::string name;
  core::AcceleratorBuilder build;
  core::AqedOptions options;
  harness::GoldenFn golden;                // null = no conventional baseline
  harness::CampaignOptions conventional;   // testbench shape for the baseline
};

struct MutantReport;

// Optional solve-result cache consulted by RunFaultCampaign before a mutant
// is verified. Implementations (src/service/cache.h) key entries by *what
// would be solved* — design digest, instrument configuration, mutant key,
// bound — so a hit is exactly "the same solve already ran somewhere". The
// fault layer only sees this interface; it never depends on service/.
class CampaignCache {
 public:
  virtual ~CampaignCache() = default;

  // Fills the EntryVerdict columns of `report` when a decided entry exists.
  // report.design and report.key are already set by the caller. false =
  // miss, verify normally.
  virtual bool Lookup(const DesignUnderTest& dut, const MutantKey& key,
                      MutantReport& report) = 0;

  // Offers a freshly classified mutant for caching. Implementations ignore
  // undecided (kUnknown) reports: an unknown is a budget artifact of this
  // run, not a property of the design.
  virtual void Store(const DesignUnderTest& dut, const MutantKey& key,
                     const MutantReport& report) = 0;
};

enum class Classification : uint8_t {
  kDetectedFc,   // functional consistency (or early-output) caught it
  kDetectedRb,   // response bound (or input starvation) caught it
  kDetectedSac,  // single-action correctness caught it
  kSurvived,     // every property refuted up to its bound
  kUnknown,      // some property job stayed inconclusive after retries
};

const char* ClassificationName(Classification classification);

// The classification a detected bug of `kind` earns. FC before RB before SAC:
// when several properties detect the same mutant (common — a corrupted
// datapath usually violates FC and SAC), the campaign credits the strongest,
// most design-independent property first, matching the paper's attribution
// in Table 1. kNone maps to kSurvived.
Classification ClassifyKind(core::BugKind kind);

// One session entry's property jobs folded into a verdict: the record a
// campaign mutant (MutantReport), a decomposition fragment
// (decomp::SubVerdict) and a solve-cache entry (service::CachedVerdict) all
// carry.
struct EntryVerdict {
  Classification classification = Classification::kUnknown;
  core::BugKind kind = core::BugKind::kNone;  // precise detecting property
  uint32_t cex_cycles = 0;      // A-QED detection latency (0 if undetected)
  uint32_t attempts = 1;        // max attempts over the entry's jobs
  // Why a kUnknown verdict is undecided: the first inconclusive job's
  // reason in the jobs' order (FC, RB, SAC in a campaign), or kNone when a
  // checker error (a counterexample that failed simulator replay) is all
  // that kept the entry from a verdict.
  UnknownReason unknown_reason = UnknownReason::kNone;
};

// The one fold rule. A validated bug earns the strongest detecting
// property's classification (ClassifyKind: FC before RB before SAC, ties to
// the first job submitted); otherwise any inconclusive job or checker error
// leaves the entry kUnknown, and only an entry whose every job refuted its
// property to the bound is kSurvived. attempts is the max over the jobs.
// A campaign folds only the jobs its precedence rounds ran (see
// FaultCampaignOptions::session). The skipped jobs cannot change
// classification, kind or cex_cycles, so those equal the fold of every
// job. attempts and unknown_reason describe the jobs that ran: attempts
// leaves out the retries a skipped job would have needed, and
// unknown_reason comes from the first undecided job in FC, RB, SAC order.
EntryVerdict ClassifyEntry(const core::SessionResult& session_result,
                           size_t entry);

struct MutantReport : EntryVerdict {
  std::string design;
  MutantKey key;
  double wall_seconds = 0;      // summed job wall time for this mutant
  // Provenance: the request trace id that classified this mutant (0 =
  // untraced, e.g. a CLI run). Fresh verdicts take
  // FaultCampaignOptions::trace_id; cache hits keep the *originating*
  // request's id (the one that actually solved), so a verdict traces back
  // to the request that paid for it. Never part of ClassificationDigest.
  uint64_t trace_id = 0;
  // Conventional-flow baseline on the same mutant (when golden was given):
  bool golden_ran = false;
  bool golden_detected = false;
  uint64_t golden_cycles = 0;   // conventional detection latency
  double golden_seconds = 0;
};

struct FaultCampaignOptions {
  uint64_t seed = 0xA9EDFA17;
  // Total mutants across all designs, split evenly (earlier designs get
  // the remainder). Designs with fewer applicable sites contribute all of
  // them.
  uint32_t num_mutants = 30;
  // Scheduling and resource governance for the verification jobs. Each
  // batch of mutants is verified in precedence rounds, one Enqueue/Wait of
  // single-property options each: FC for every mutant, RB for the mutants
  // FC did not detect, SAC for those neither detected. Only a validated
  // detection ends a mutant's chain; a clean, inconclusive or checker-error
  // job does not. The cancellation policy is forced to kNone, so which jobs
  // run depends on verdicts alone, never on the worker count.
  // Decomposition keeps one wave under its caller's policy (kEntry by
  // default), where the cheapest-first job order picks the reported
  // property; FC-first rounds would change that attribution.
  core::SessionOptions session;
  // Also run the conventional random-simulation campaign on each mutant of
  // every golden-equipped design.
  bool conventional_baseline = false;
  // Durable campaigns (src/fault/journal.h): when set, every classified
  // mutant is appended — CRC-guarded, fsynced — to this JSONL journal the
  // moment its batch is classified, and the finished campaign rewrites the
  // journal compacted via tmp+rename. Mutants are verified in batches (a
  // few per worker) instead of one monolithic session round, so a crash
  // loses at most the in-flight batch.
  std::string journal_path;
  // Replay journal_path first and skip every mutant it already classifies
  // (matched by design name + mutant key). A torn trailing record is
  // truncated and re-verified; corrupt mid-file records are skipped with a
  // counted warning. With `resume` false an existing journal is restarted
  // from scratch.
  bool resume = false;
  // Content-addressed solve cache (src/service/cache.h): consulted per
  // planned mutant before verification, offered every fresh classification.
  // Borrowed, not owned; null = no caching. Cache hits skip the solve
  // entirely but still count in the classification digest, so a fully
  // cached campaign digests identical to a cold one.
  CampaignCache* cache = nullptr;
  // Request trace id stamped onto every mutant this campaign classifies
  // fresh — into journal records and cache-store provenance (0 = untraced).
  // aqed-server sets it from the client request.
  uint64_t trace_id = 0;
};

struct FaultCampaignResult {
  std::vector<MutantReport> mutants;  // deterministic order
  SessionStats stats;                 // per-attempt accounting
  double wall_seconds = 0;
  // Resume accounting (zero for non-journaled campaigns): mutants restored
  // from the journal instead of re-verified, corrupt journal records
  // skipped during replay, and whether a torn trailing record was dropped.
  size_t resumed = 0;
  size_t journal_skipped = 0;
  bool journal_torn_tail = false;
  // Solve-cache accounting (zero when options.cache was null): mutants
  // restored from the cache vs. verified fresh this run.
  size_t cache_hits = 0;
  size_t cache_misses = 0;

  size_t count(Classification classification) const;
  size_t num_detected() const;
  // Mutants with a definite verdict (detected or survived).
  size_t num_classified() const { return mutants.size() - count(Classification::kUnknown); }
  double classified_fraction() const;
  // Survivors the golden-model diff flags: mutants the conventional flow
  // detects but every A-QED property missed — the campaign's soundness
  // canary (expected 0 when SAC is enabled; see DESIGN.md).
  size_t num_silent_survivors() const;
  // Order-independent digest over (design, mutant, classification): equal
  // digests <=> identical classifications, the cheap way to compare runs
  // across --jobs counts.
  uint64_t ClassificationDigest() const;
  // Per-design coverage table plus a summary line.
  std::string ToTable() const;
};

// Runs the campaign: samples options.num_mutants mutants over `designs`,
// verifies them in one verification session (precedence rounds per batch,
// see FaultCampaignOptions::session), classifies, and (when asked)
// baselines against the conventional flow.
FaultCampaignResult RunFaultCampaign(std::span<const DesignUnderTest> designs,
                                     const FaultCampaignOptions& options);

}  // namespace aqed::fault
