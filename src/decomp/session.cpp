#include "decomp/session.h"

#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "ir/digest.h"
#include "sched/session.h"
#include "support/record.h"
#include "support/stats.h"
#include "telemetry/metrics.h"

namespace aqed::decomp {

namespace {

using support::kFnvOffset;
using support::MixInt;
using support::MixText;

// The fragment's per-sub options: a bound override replaces the global BMC
// bound and clears the per-property overrides (they were tuned against the
// parent bound and may exceed the fragment's).
core::AqedOptions OptionsFor(const core::AqedOptions& base,
                             const SubAccelerator& sub) {
  core::AqedOptions options = base;
  if (sub.bound() != 0) {
    options.bmc.max_bound = sub.bound();
    options.fc_bound = 0;
    options.rb_bound = 0;
    options.sac_bound = 0;
  }
  return options;
}

}  // namespace

const SubVerdict* DecompositionResult::FirstBug() const {
  for (const SubVerdict& sub : subs) {
    if (sub.classification == fault::Classification::kDetectedFc ||
        sub.classification == fault::Classification::kDetectedRb ||
        sub.classification == fault::Classification::kDetectedSac) {
      return &sub;
    }
  }
  return nullptr;
}

size_t DecompositionResult::num_unknown() const {
  size_t count = 0;
  for (const SubVerdict& sub : subs) {
    if (sub.classification == fault::Classification::kUnknown) count++;
  }
  return count;
}

uint64_t DecompositionResult::VerdictDigest() const {
  // Commutative sum of per-sub hashes: identical across scheduling orders
  // and worker counts, different whenever any verdict column changes.
  uint64_t sum = 0;
  for (const SubVerdict& sub : subs) {
    uint64_t h = kFnvOffset;
    h = MixText(h, sub.name);
    h = MixInt(h, static_cast<uint64_t>(sub.classification));
    h = MixInt(h, static_cast<uint64_t>(sub.kind));
    h = MixInt(h, sub.cex_cycles);
    sum += h;
  }
  return MixInt(MixInt(kFnvOffset, sum), subs.size());
}

std::string DecompositionResult::ToTable() const {
  std::ostringstream out;
  out << "decomposition '" << name << "': "
      << (bug_found() ? "BUG" : (num_unknown() ? "UNKNOWN" : "clean")) << " ("
      << subs.size() << " subs, " << jobs_enqueued << " solved, " << deduped
      << " deduped, " << cache_hits << " cached)\n";
  out << "sub-accelerator      verdict       kind                  cex  "
         "source\n";
  for (const SubVerdict& sub : subs) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-20s %-13s %-20s %4u  %s\n",
                  sub.name.c_str(),
                  fault::ClassificationName(sub.classification),
                  core::BugKindName(sub.kind), sub.cex_cycles,
                  sub.cached ? "cache" : (sub.deduped ? "dedup" : "solve"));
    out << line;
  }
  out << coverage.ToTable();
  return out.str();
}

DecomposedSession::DecomposedSession(Decomposition decomposition,
                                     DecompOptions options)
    : decomposition_(std::move(decomposition)), options_(std::move(options)) {}

StatusOr<DecompositionResult> DecomposedSession::Run() {
  Stopwatch stopwatch;
  auto coverage = decomposition_.Analyze();
  if (!coverage.ok()) return coverage.status();

  DecompositionResult result;
  result.name = decomposition_.name();
  result.coverage = std::move(coverage).value();
  result.subs.resize(decomposition_.subs().size());

  sched::VerificationSession session(options_.session);

  // Job bookkeeping: for each declared sub, either a cache hit (verdict
  // already final), an alias of an earlier isomorphic fragment, or the
  // handle of the job enqueued for it.
  struct Pending {
    core::JobHandle handle;
    service::CacheKey key;
    bool enqueued = false;
    size_t alias_of = 0;  // index of the representative when deduped
    bool aliased = false;
  };
  std::vector<Pending> pending(decomposition_.subs().size());
  // First sub index seen per cache key — the dedup representative.
  std::unordered_map<std::string, size_t> representative;

  for (size_t i = 0; i < decomposition_.subs().size(); ++i) {
    const SubAccelerator& sub = decomposition_.subs()[i];
    SubVerdict& verdict = result.subs[i];
    verdict.name = sub.name();

    const core::AqedOptions sub_options = OptionsFor(options_.aqed, sub);
    core::AcceleratorBuilder build = decomposition_.BuilderFor(i);

    // Digest the pristine fragment (instrumentation happens inside the
    // session job, on a fresh copy).
    ir::TransitionSystem pristine;
    build(pristine);
    verdict.fragment_digest = ir::AnonymousStructuralDigest(pristine);

    Pending& entry = pending[i];
    entry.key = service::CacheKey{verdict.fragment_digest,
                                  service::ConfigDigest(sub_options), "-",
                                  sub_options.bmc.max_bound};

    if (options_.cache != nullptr) {
      if (const auto hit = options_.cache->Lookup(entry.key)) {
        static_cast<fault::EntryVerdict&>(verdict) = *hit;
        verdict.cached = true;
        result.cache_hits++;
        continue;
      }
      result.cache_misses++;
    }

    const std::string key_text = entry.key.ToString();
    if (const auto rep = representative.find(key_text);
        rep != representative.end()) {
      entry.aliased = true;
      entry.alias_of = rep->second;
      verdict.deduped = true;
      result.deduped++;
      continue;
    }
    representative.emplace(key_text, i);
    entry.handle = session.Enqueue(std::move(build), sub_options, sub.name());
    entry.enqueued = true;
    result.jobs_enqueued++;
  }

  const core::SessionResult session_result = session.Wait();

  for (size_t i = 0; i < pending.size(); ++i) {
    if (!pending[i].enqueued) continue;
    SubVerdict& verdict = result.subs[i];
    static_cast<fault::EntryVerdict&>(verdict) =
        fault::ClassifyEntry(session_result, pending[i].handle.index());
    if (options_.cache != nullptr) {
      options_.cache->Store(pending[i].key, {verdict, 0});
    }
  }

  // Aliases inherit their representative's verdict (which is never cached
  // here: cache hits were peeled off before dedup, and an unknown
  // representative propagates as unknown — dedup must not launder an
  // undecided verdict into a decided-looking one).
  for (size_t i = 0; i < pending.size(); ++i) {
    if (!pending[i].aliased) continue;
    static_cast<fault::EntryVerdict&>(result.subs[i]) =
        result.subs[pending[i].alias_of];
  }

  result.wall_seconds = stopwatch.ElapsedSeconds();
  telemetry::AddCounter("decomp.subs", result.subs.size());
  telemetry::AddCounter("decomp.jobs", result.jobs_enqueued);
  telemetry::AddCounter("decomp.deduped", result.deduped);
  telemetry::AddCounter("decomp.cache_hits", result.cache_hits);
  return result;
}

}  // namespace aqed::decomp
