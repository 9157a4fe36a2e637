#include "service/cache.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/journal.h"
#include "ir/digest.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace aqed::service {

namespace {

using support::MixInt;
using support::MixText;

std::string EncodeEntry(const CacheKey& key, const CachedVerdict& verdict) {
  using telemetry::Json;
  std::map<std::string, Json> data = {
      {"design", Json(support::Hex64(key.design_digest))},
      {"config", Json(support::Hex64(key.config_digest))},
      {"mutant", Json(key.mutant_key)},
      {"depth", Json(int64_t{key.depth})},
  };
  fault::AddVerdictColumns(verdict, data);
  if (verdict.trace_id != 0) {
    data.emplace("trace_id", Json(support::Hex64(verdict.trace_id)));
  }
  return support::SealRecord(
      telemetry::Dump(Json::Object(std::move(data))));
}

std::optional<std::pair<CacheKey, CachedVerdict>> DecodeEntry(
    std::string_view payload) {
  const std::optional<telemetry::Json> json = telemetry::ParseJson(payload);
  if (!json) return std::nullopt;
  const auto design = json->GetHex64("design");
  const auto config = json->GetHex64("config");
  const auto mutant = json->GetString("mutant");
  const auto depth = json->GetInt("depth", 0, UINT32_MAX);
  const auto verdict = fault::ReadVerdictColumns(*json);
  // A persisted kUnknown can only come from corruption or hand-editing:
  // Store refuses them, so Load does too.
  if (!design || !config || !mutant || !depth || !verdict ||
      verdict->classification == fault::Classification::kUnknown) {
    return std::nullopt;
  }

  CacheKey key;
  key.design_digest = *design;
  key.config_digest = *config;
  key.mutant_key = *mutant;
  key.depth = static_cast<uint32_t>(*depth);
  // Optional provenance: files written before trace ids (or entries solved
  // by an untraced run) simply have none.
  return std::make_pair(
      std::move(key),
      CachedVerdict{*verdict, json->GetHex64("trace_id").value_or(0)});
}

}  // namespace

std::string CacheKey::ToString() const {
  return "d=" + support::Hex64(design_digest) + " c=" +
         support::Hex64(config_digest) + " m=" + mutant_key +
         " b=" + std::to_string(depth);
}

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  uint64_t hash = support::kFnvOffset;
  hash = MixInt(hash, key.design_digest);
  hash = MixInt(hash, key.config_digest);
  hash = MixText(hash, key.mutant_key);
  hash = MixInt(hash, key.depth);
  return static_cast<size_t>(hash);
}

uint64_t ConfigDigest(const core::AqedOptions& options) {
  uint64_t hash = MixInt(support::kFnvOffset, 0xC0F1D16Eu);  // format version salt
  hash = MixInt(hash, options.check_fc ? 1 : 0);
  hash = MixText(hash, options.fc.label);
  hash = MixInt(hash, options.fc.check_early_output ? 1 : 0);
  hash = MixInt(hash, options.rb.has_value() ? 1 : 0);
  if (options.rb.has_value()) {
    hash = MixInt(hash, options.rb->tau);
    hash = MixInt(hash, options.rb->in_min);
    hash = MixInt(hash, options.rb->rdin_bound);
    hash = MixInt(hash, options.rb->progress_qualifier);
    hash = MixText(hash, options.rb->label);
  }
  hash = MixInt(hash, options.sac_spec != nullptr ? 1 : 0);
  hash = MixText(hash, options.sac.label);
  hash = MixInt(hash, options.fc_bound);
  hash = MixInt(hash, options.rb_bound);
  hash = MixInt(hash, options.sac_bound);
  // Budgets are conservative inclusions: a decided verdict does not depend
  // on them, but keying them avoids ever having to argue the point.
  hash = MixInt(hash, static_cast<uint64_t>(options.bmc.conflict_budget));
  hash = MixInt(hash, options.bmc.validate_counterexamples ? 1 : 0);
  hash = MixInt(hash, options.bmc.bad_filter.size());
  for (const uint32_t bad : options.bmc.bad_filter) {
    hash = MixInt(hash, bad);
  }
  return hash;
}

std::optional<CachedVerdict> SolveCache::Lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    telemetry::AddCounter("service.cache.misses", 1);
    return std::nullopt;
  }
  ++hits_;
  it->second.last_use = ++tick_;
  telemetry::AddCounter("service.cache.hits", 1);
  return it->second.verdict;
}

void SolveCache::Store(const CacheKey& key, const CachedVerdict& verdict) {
  if (verdict.classification == fault::Classification::kUnknown) return;
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[key] = Slot{verdict, ++tick_};
  telemetry::AddCounter("service.cache.store", 1);
  telemetry::SetGauge("service.cache.entries",
                      static_cast<int64_t>(entries_.size()));
}

void SolveCache::SetMaxEntries(size_t max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = max_entries;
}

Status SolveCache::Load(const std::string& path) {
  StatusOr<std::string> contents = support::ReadFileToString(path);
  if (!contents.ok()) return Status::Ok();  // missing cache = empty cache
  auto scan = support::ScanRecords(contents.value(), DecodeEntry);
  // A torn tail is one more poisoned line: its mutant is simply re-solved.
  const uint64_t dropped = scan.skipped_records + (scan.torn_tail ? 1 : 0);

  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, verdict] : scan.records) {
    // Load order approximates the persisted file's recency: Save wrote
    // survivors of the previous trim, so all of them start equally warm
    // relative to anything stored later in this run.
    entries_[std::move(key)] = Slot{verdict, ++tick_};
  }
  poisoned_ += dropped;
  if (dropped > 0) {
    telemetry::AddCounter("service.cache.dropped", dropped);
  }
  telemetry::SetGauge("service.cache.entries",
                      static_cast<int64_t>(entries_.size()));
  return Status::Ok();
}

Status SolveCache::Save(const std::string& path) {
  // Chaos site: the moment a crash would tear the persisted cache — which
  // the CRC line format plus atomic replace must make survivable.
  if (AQED_FAILPOINT("service.cache.store")) {
    return Status::Error("cache store failed (failpoint)");
  }
  // Concurrent saves share one temporary file name; without this two
  // campaigns finishing together race the rename and one fails with ENOENT.
  std::lock_guard<std::mutex> save_lock(save_mutex_);
  std::string contents;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_entries_ != 0 && entries_.size() > max_entries_) {
      // Trim the least-recently-used entries down to the bound. Save is the
      // cold path (once per campaign), so a sort over the ticks is cheaper
      // to reason about than keeping an intrusive LRU list hot in Lookup.
      std::vector<uint64_t> ticks;
      ticks.reserve(entries_.size());
      for (const auto& [key, slot] : entries_) ticks.push_back(slot.last_use);
      std::nth_element(ticks.begin(),
                       ticks.begin() + (entries_.size() - max_entries_ - 1),
                       ticks.end());
      const uint64_t cutoff = ticks[entries_.size() - max_entries_ - 1];
      uint64_t trimmed = 0;
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.last_use <= cutoff) {
          it = entries_.erase(it);
          ++trimmed;
        } else {
          ++it;
        }
      }
      evicted_ += trimmed;
      telemetry::AddCounter("service.cache.evicted",
                            static_cast<int64_t>(trimmed));
      telemetry::SetGauge("service.cache.entries",
                          static_cast<int64_t>(entries_.size()));
    }
    for (const auto& [key, slot] : entries_) {
      contents += EncodeEntry(key, slot.verdict);
    }
  }
  return support::WriteFileDurable(path, contents);
}

size_t SolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

uint64_t SolveCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t SolveCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t SolveCache::poisoned() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return poisoned_;
}

uint64_t SolveCache::evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

double SolveCache::hit_ratio() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 1.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

CacheKey CampaignCacheAdapter::KeyFor(const fault::DesignUnderTest& dut,
                                      const fault::MutantKey& key) {
  CacheKey out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = design_digests_.find(dut.name);
    if (it != design_digests_.end()) {
      out.design_digest = it->second;
    }
  }
  if (out.design_digest == 0) {
    // One pristine build per design, outside the lock: builders are pure
    // and the digest deterministic, so a racing double-compute is benign.
    ir::TransitionSystem scratch;
    dut.build(scratch);
    const uint64_t digest = ir::StructuralDigest(scratch);
    std::lock_guard<std::mutex> lock(mutex_);
    design_digests_[dut.name] = digest;
    out.design_digest = digest;
  }
  out.config_digest = ConfigDigest(dut.options);
  out.mutant_key = key.ToString();
  out.depth = dut.options.bmc.max_bound;
  return out;
}

bool CampaignCacheAdapter::Lookup(const fault::DesignUnderTest& dut,
                                  const fault::MutantKey& key,
                                  fault::MutantReport& report) {
  const std::optional<CachedVerdict> hit = cache_.Lookup(KeyFor(dut, key));
  if (!hit) return false;
  static_cast<fault::EntryVerdict&>(report) = *hit;
  // The *originating* request's id, not this run's: a hit's provenance is
  // whoever actually solved it.
  report.trace_id = hit->trace_id;
  return true;
}

void CampaignCacheAdapter::Store(const fault::DesignUnderTest& dut,
                                 const fault::MutantKey& key,
                                 const fault::MutantReport& report) {
  if (report.classification == fault::Classification::kUnknown) return;
  cache_.Store(KeyFor(dut, key), CachedVerdict{report, report.trace_id});
}

}  // namespace aqed::service
