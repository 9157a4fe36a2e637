// Content-addressed solve cache.
//
// aqed-server multiplexes campaigns from many clients, and campaigns are
// overwhelmingly re-runs: the same design list, the same seeds, the same
// bounds — a CI job replayed, a flaky client retried, a second tenant
// verifying the same accelerator drop. The cache makes the second solve
// free by keying each mutant's decided classification by *what was solved*:
//
//   (design digest, instrument config digest, mutant key, depth)
//
// The design digest is the order-independent structural digest of the
// pristine (un-instrumented) transition system (ir/digest.h), so two
// clients that build the same circuit with different node numbering or
// declaration order share entries. The config digest covers every
// AqedOptions field that can change a verdict (enabled properties and
// their parameters, per-property bounds, bad filter, budgets); the BMC
// depth is kept as its own key field. Undecided (kUnknown) results are
// never cached — an unknown is a budget artifact of one run, not a
// property of the design.
//
// Persistence is one CRC-guarded record line per entry (support/record.h),
// written atomically via tmp+fsync+rename. A poisoned line — torn
// write, flipped bit, hand-edited garbage — fails its CRC or decode at
// Load, is dropped and counted, and the affected mutant is simply
// re-solved: corruption can cost a cache hit, never an answer.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "fault/campaign.h"
#include "support/status.h"

namespace aqed::service {

// What one cache entry is addressed by. mutant_key is the stable textual
// MutantKey ("op-swap@n42#seed=0xa9ed", node indices relative to the
// pristine build — deterministic builders make that stable), or "-" for a
// whole-design (unmutated) solve.
struct CacheKey {
  uint64_t design_digest = 0;
  uint64_t config_digest = 0;
  std::string mutant_key;
  uint32_t depth = 0;

  bool operator==(const CacheKey&) const = default;
  // Canonical spelling, e.g. "d=0123..cdef c=89ab..0123 m=op-swap@n4#... b=32".
  std::string ToString() const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

// Digest of every AqedOptions field that can change a verdict. Excludes
// bmc.max_bound (the CacheKey carries depth separately) and pure-performance
// knobs (cube escalation, solver worker counts): those change *how fast* a
// verdict arrives, never which one. The SAC spec is a std::function and
// cannot be hashed — only its presence enters; in practice specs are bound
// to designs (service/registry.h), so the design digest disambiguates.
uint64_t ConfigDigest(const core::AqedOptions& options);

// One decided solve outcome: the folded verdict of the entry that solved it
// (unknown_reason is always kNone here, as only decided verdicts are kept).
struct CachedVerdict : fault::EntryVerdict {
  // Provenance: the request trace id that originally solved this entry
  // (0 = untraced). A later hit hands the id back out via the adapter, so
  // `aqed-client --status`-style tooling can trace a cached verdict to the
  // request that paid for the solve. Persisted; optional on decode.
  uint64_t trace_id = 0;
};

// Thread-safe content-addressed map of decided verdicts with CRC-JSONL
// persistence. Telemetry: service.cache.{hits,misses,store,dropped,evicted}
// counters and the service.cache.entries gauge.
class SolveCache {
 public:
  // Lookup counts a hit or miss. nullopt = not cached, solve it.
  std::optional<CachedVerdict> Lookup(const CacheKey& key);

  // Stores a decided verdict; kUnknown classifications are ignored.
  void Store(const CacheKey& key, const CachedVerdict& verdict);

  // Bounds the cache (0 = unbounded, the default). Enforced at Save time:
  // when over budget, the least-recently-used entries (touched by neither a
  // Lookup hit nor a Store since longest ago) are trimmed before the file
  // is written, so neither memory nor the persisted file grows without
  // limit while the in-memory hot path stays a plain map.
  void SetMaxEntries(size_t max_entries);

  // Merges `path` into the cache. A missing file is an empty cache, not an
  // error; lines failing CRC or decode are dropped and counted (poisoned()).
  Status Load(const std::string& path);

  // Atomically rewrites `path` with every entry (tmp+fsync+rename), after
  // LRU-trimming to the SetMaxEntries bound (counted in evicted()).
  // Serialized: concurrent campaigns finishing together must not race on
  // the rename's temporary file. Chaos site "service.cache.store".
  Status Save(const std::string& path);

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;
  // Undecodable lines dropped by Load since construction.
  uint64_t poisoned() const;
  // Entries trimmed by the SetMaxEntries bound since construction.
  uint64_t evicted() const;
  // hits / (hits + misses); 1.0 when no lookups happened.
  double hit_ratio() const;

 private:
  struct Slot {
    CachedVerdict verdict;
    uint64_t last_use = 0;  // recency tick of the last hit or store
  };

  mutable std::mutex mutex_;
  mutable std::mutex save_mutex_;  // taken first; never under mutex_
  std::unordered_map<CacheKey, Slot, CacheKeyHash> entries_;
  size_t max_entries_ = 0;  // 0 = unbounded
  uint64_t tick_ = 0;       // monotonic recency clock
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t poisoned_ = 0;
  uint64_t evicted_ = 0;
};

// fault::CampaignCache adapter: translates (DesignUnderTest, MutantKey)
// into a CacheKey — memoizing the per-design structural digest, which costs
// one pristine build per design — and copies the EntryVerdict between
// MutantReport and CachedVerdict. Borrowed cache must outlive the adapter.
class CampaignCacheAdapter : public fault::CampaignCache {
 public:
  explicit CampaignCacheAdapter(SolveCache& cache) : cache_(cache) {}

  bool Lookup(const fault::DesignUnderTest& dut, const fault::MutantKey& key,
              fault::MutantReport& report) override;
  void Store(const fault::DesignUnderTest& dut, const fault::MutantKey& key,
             const fault::MutantReport& report) override;

 private:
  CacheKey KeyFor(const fault::DesignUnderTest& dut,
                  const fault::MutantKey& key);

  SolveCache& cache_;
  std::mutex mutex_;
  // Design digests memoized by name: campaigns reuse a handful of designs
  // across thousands of mutants, and names are unique within a design list.
  std::unordered_map<std::string, uint64_t> design_digests_;
};

}  // namespace aqed::service
