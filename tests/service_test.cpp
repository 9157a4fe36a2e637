// Verification-service tests: the order-independent structural digest, the
// content-addressed solve cache (keying, persistence, poison recovery, the
// store failpoint), the wire protocol (framing + message round-trips), and
// aqed-server end to end over a real Unix socket — including the acceptance
// contract that a campaign through the server classifies bit-identically to
// a direct RunFaultCampaign and that a replay is served from cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "accel/dataflow.h"
#include "aqed/checker.h"
#include "aqed/fc_instrument.h"
#include "aqed/monitor_util.h"
#include "fault/campaign.h"
#include "ir/btor2.h"
#include "ir/digest.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/registry.h"
#include "service/server.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/record.h"
#include "telemetry/json.h"

namespace aqed::service {
namespace {

using ir::NodeRef;
using ir::Sort;
using support::FailpointAction;
namespace failpoint = support::failpoint;

// --- structural digest -------------------------------------------------------

// The same two-state circuit built with its combinational nodes created in
// two different orders: hash-consing assigns different NodeRefs, the digest
// must not care.
void BuildPair(ir::TransitionSystem& ts, bool reversed) {
  auto& ctx = ts.ctx();
  const NodeRef a = ts.AddInput("a", Sort::BitVec(8));
  const NodeRef b = ts.AddInput("b", Sort::BitVec(8));
  const NodeRef acc = ts.AddState("acc", Sort::BitVec(8), ctx.Const(8, 0));
  NodeRef sum, mask;
  if (reversed) {
    mask = ctx.And(a, b);
    sum = ctx.Add(acc, a);
  } else {
    sum = ctx.Add(acc, a);
    mask = ctx.And(a, b);
  }
  ts.SetNext(acc, sum);
  ts.AddBad(ctx.Eq(mask, ctx.Const(8, 0xFF)), "saturated");
  ts.AddOutput("acc", acc);
}

TEST(StructuralDigestTest, NodeOrderDoesNotChangeTheDigest) {
  ir::TransitionSystem forward, backward;
  BuildPair(forward, /*reversed=*/false);
  BuildPair(backward, /*reversed=*/true);
  EXPECT_EQ(ir::StructuralDigest(forward), ir::StructuralDigest(backward));
}

TEST(StructuralDigestTest, DeclarationOrderDoesNotChangeTheDigest) {
  // Registering inputs/outputs/bads in a different order is also immaterial.
  ir::TransitionSystem one, two;
  {
    auto& ctx = one.ctx();
    const NodeRef x = one.AddInput("x", Sort::BitVec(4));
    const NodeRef y = one.AddInput("y", Sort::BitVec(4));
    one.AddBad(ctx.Eq(x, y), "eq");
    one.AddOutput("x", x);
    one.AddOutput("y", y);
  }
  {
    auto& ctx = two.ctx();
    const NodeRef y = two.AddInput("y", Sort::BitVec(4));
    const NodeRef x = two.AddInput("x", Sort::BitVec(4));
    two.AddOutput("y", y);
    two.AddOutput("x", x);
    two.AddBad(ctx.Eq(x, y), "eq");
  }
  EXPECT_EQ(ir::StructuralDigest(one), ir::StructuralDigest(two));
}

// The data-path hint InstrumentFc records is not part of what is solved:
// digests and the BTOR2 text of an instrumented system ignore it, so solve
// caches and journals written before the hint existed still hit.
TEST(StructuralDigestTest, DataPathHintDoesNotChangeTheDigest) {
  ir::TransitionSystem ts;
  const core::AcceleratorInterface acc = accel::BuildDataflow(ts, {}).acc;
  core::InstrumentFc(ts, acc);
  ASSERT_FALSE(ts.data_path_hint().data_roots.empty());
  const uint64_t digest = ir::StructuralDigest(ts);
  const uint64_t anonymous = ir::AnonymousStructuralDigest(ts);
  const std::string btor2 = ir::ToBtor2(ts);
  ts.SetDataPathHint({});
  EXPECT_EQ(ir::StructuralDigest(ts), digest);
  EXPECT_EQ(ir::AnonymousStructuralDigest(ts), anonymous);
  EXPECT_EQ(ir::ToBtor2(ts), btor2);
}

TEST(StructuralDigestTest, SemanticChangesChangeTheDigest) {
  auto digest_of = [](auto build) {
    ir::TransitionSystem ts;
    build(ts);
    return ir::StructuralDigest(ts);
  };
  const uint64_t base = digest_of([](ir::TransitionSystem& ts) {
    const NodeRef in = ts.AddInput("in", Sort::BitVec(8));
    ts.AddBad(ts.ctx().Eq(in, ts.ctx().Const(8, 7)), "hit");
  });
  // A different constant, a different width, a renamed port, a renamed bad:
  // all distinct designs, all distinct digests.
  const uint64_t constant = digest_of([](ir::TransitionSystem& ts) {
    const NodeRef in = ts.AddInput("in", Sort::BitVec(8));
    ts.AddBad(ts.ctx().Eq(in, ts.ctx().Const(8, 8)), "hit");
  });
  const uint64_t width = digest_of([](ir::TransitionSystem& ts) {
    const NodeRef in = ts.AddInput("in", Sort::BitVec(16));
    ts.AddBad(ts.ctx().Eq(in, ts.ctx().Const(16, 7)), "hit");
  });
  const uint64_t renamed = digest_of([](ir::TransitionSystem& ts) {
    const NodeRef in = ts.AddInput("input", Sort::BitVec(8));
    ts.AddBad(ts.ctx().Eq(in, ts.ctx().Const(8, 7)), "hit");
  });
  const uint64_t label = digest_of([](ir::TransitionSystem& ts) {
    const NodeRef in = ts.AddInput("in", Sort::BitVec(8));
    ts.AddBad(ts.ctx().Eq(in, ts.ctx().Const(8, 7)), "miss");
  });
  EXPECT_NE(base, constant);
  EXPECT_NE(base, width);
  EXPECT_NE(base, renamed);
  EXPECT_NE(base, label);
}

// --- config digest -----------------------------------------------------------

TEST(ConfigDigestTest, VerdictAffectingFieldsKeyTheCache) {
  core::AqedOptions base;
  EXPECT_EQ(ConfigDigest(base), ConfigDigest(base));  // deterministic

  core::AqedOptions fc_bound = base;
  fc_bound.fc_bound = 12;
  EXPECT_NE(ConfigDigest(base), ConfigDigest(fc_bound));

  core::AqedOptions with_rb = base;
  with_rb.rb.emplace();
  with_rb.rb->tau = 9;
  EXPECT_NE(ConfigDigest(base), ConfigDigest(with_rb));

  core::AqedOptions budget = base;
  budget.bmc.conflict_budget = 12345;
  EXPECT_NE(ConfigDigest(base), ConfigDigest(budget));
}

TEST(ConfigDigestTest, DepthIsNotPartOfTheConfigDigest) {
  // The BMC bound is its own CacheKey field; folding it into the config
  // digest too would make the key ambiguous about *why* two entries differ.
  core::AqedOptions shallow, deep;
  shallow.bmc.max_bound = 8;
  deep.bmc.max_bound = 64;
  EXPECT_EQ(ConfigDigest(shallow), ConfigDigest(deep));
}

// Persisted cache files and cross-process cache sharing depend on the exact
// digest bytes: any change to the hash mixing must show up here first.
TEST(ConfigDigestTest, DigestsArePinnedToRecordedValues) {
  core::AqedOptions options;
  options.fc.label = "fc";
  options.rb.emplace();
  options.rb->tau = 9;
  options.rb->label = "rb";
  options.fc_bound = 12;
  options.bmc.conflict_budget = 5000;
  options.bmc.bad_filter = {0, 2};
  EXPECT_EQ(ConfigDigest(core::AqedOptions{}), 0xef2228d11be8e6ceull);
  EXPECT_EQ(ConfigDigest(options), 0x53527c9739571521ull);

  CacheKey key;
  key.design_digest = 0xD16E57D16E57D16Eull;
  key.config_digest = 0xC0F1C0F1C0F1C0F1ull;
  key.mutant_key = "op-swap@n42#seed=0xa9ed";
  key.depth = 16;
  EXPECT_EQ(key.ToString(),
            "d=d16e57d16e57d16e c=c0f1c0f1c0f1c0f1 m=op-swap@n42#seed=0xa9ed "
            "b=16");
  EXPECT_EQ(CacheKeyHash()(key), 0x7e62addeb59accf0ull);

  const std::vector<fault::DesignUnderTest> catalog = BuiltinDesigns();
  const fault::DesignUnderTest* alu = FindDesign(catalog, "alu");
  ASSERT_NE(alu, nullptr);
  ir::TransitionSystem ts;
  alu->build(ts);
  EXPECT_EQ(ir::StructuralDigest(ts), 0x32e0a5b4995b609cull);
  EXPECT_EQ(ir::AnonymousStructuralDigest(ts), 0x3fe04f82091ece56ull);
}

// --- catalog selection -------------------------------------------------------

TEST(SelectDesignsTest, ResolvesNamesAndRejectsUnknownsWithTheCatalog) {
  const std::vector<fault::DesignUnderTest> catalog = BuiltinDesigns();

  // Empty selection = the whole catalog (bench_fault with no --designs).
  StatusOr<std::vector<fault::DesignUnderTest>> all =
      SelectDesigns(catalog, std::string_view(""));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), catalog.size());

  StatusOr<std::vector<fault::DesignUnderTest>> two =
      SelectDesigns(catalog, std::string_view("alu,widepipe"));
  ASSERT_TRUE(two.ok());
  ASSERT_EQ(two.value().size(), 2u);
  EXPECT_EQ(two.value()[0].name, "alu");
  EXPECT_EQ(two.value()[1].name, "widepipe");

  StatusOr<std::vector<fault::DesignUnderTest>> bogus =
      SelectDesigns(catalog, std::string_view("alu,frobnicator"));
  ASSERT_FALSE(bogus.ok());
  // The error is the user's catalog listing: every valid name appears.
  EXPECT_NE(bogus.status().message().find("frobnicator"), std::string::npos);
  for (const fault::DesignUnderTest& design : catalog) {
    EXPECT_NE(bogus.status().message().find(design.name), std::string::npos);
  }
}

// --- solve cache -------------------------------------------------------------

CacheKey TestKey(uint32_t depth = 16, const std::string& mutant = "m@n1#s1") {
  CacheKey key;
  key.design_digest = 0xD16E57D16E57D16Eull;
  key.config_digest = 0xC0F1C0F1C0F1C0F1ull;
  key.mutant_key = mutant;
  key.depth = depth;
  return key;
}

CachedVerdict DetectedVerdict() {
  CachedVerdict verdict;
  verdict.classification = fault::Classification::kDetectedFc;
  verdict.kind = core::BugKind::kFunctionalConsistency;
  verdict.cex_cycles = 5;
  verdict.attempts = 2;
  return verdict;
}

TEST(SolveCacheTest, StoreThenLookupRoundTrips) {
  SolveCache cache;
  EXPECT_FALSE(cache.Lookup(TestKey()).has_value());
  cache.Store(TestKey(), DetectedVerdict());
  const auto hit = cache.Lookup(TestKey());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->classification, fault::Classification::kDetectedFc);
  EXPECT_EQ(hit->kind, core::BugKind::kFunctionalConsistency);
  EXPECT_EQ(hit->cex_cycles, 5u);
  EXPECT_EQ(hit->attempts, 2u);
  // Key sensitivity: a different depth or mutant is a different solve.
  EXPECT_FALSE(cache.Lookup(TestKey(32)).has_value());
  EXPECT_FALSE(cache.Lookup(TestKey(16, "m@n2#s1")).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(SolveCacheTest, UnknownVerdictsAreNeverCached) {
  SolveCache cache;
  CachedVerdict unknown;
  unknown.classification = fault::Classification::kUnknown;
  cache.Store(TestKey(), unknown);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(TestKey()).has_value());
}

TEST(SolveCacheTest, SaveLoadRoundTripsEveryEntry) {
  const std::string path =
      "/tmp/aqed_cache_roundtrip_" + std::to_string(::getpid()) + ".jsonl";
  SolveCache cache;
  cache.Store(TestKey(16, "m@n1#s1"), DetectedVerdict());
  CachedVerdict survived;
  survived.classification = fault::Classification::kSurvived;
  cache.Store(TestKey(16, "m@n2#s1"), survived);
  ASSERT_TRUE(cache.Save(path).ok());

  SolveCache restored;
  ASSERT_TRUE(restored.Load(path).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored.poisoned(), 0u);
  const auto hit = restored.Lookup(TestKey(16, "m@n1#s1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->classification, fault::Classification::kDetectedFc);
  EXPECT_EQ(hit->cex_cycles, 5u);
  std::remove(path.c_str());
}

TEST(SolveCacheTest, MissingFileLoadsAsEmptyCache) {
  SolveCache cache;
  EXPECT_TRUE(cache.Load("/tmp/aqed_cache_never_written.jsonl").ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SolveCacheTest, PoisonedLineIsDroppedNotTrusted) {
  const std::string path =
      "/tmp/aqed_cache_poison_" + std::to_string(::getpid()) + ".jsonl";
  SolveCache cache;
  cache.Store(TestKey(16, "m@n1#s1"), DetectedVerdict());
  cache.Store(TestKey(16, "m@n2#s1"), DetectedVerdict());
  ASSERT_TRUE(cache.Save(path).ok());

  // Flip one payload byte of the first line: the CRC must catch it.
  StatusOr<std::string> contents = support::ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string text = contents.value();
  const size_t cycles = text.find("\"cex_cycles\":5");
  ASSERT_NE(cycles, std::string::npos);
  text[cycles + 13] = '9';
  ASSERT_TRUE(support::WriteFileDurable(path, text).ok());

  SolveCache restored;
  ASSERT_TRUE(restored.Load(path).ok());
  EXPECT_EQ(restored.size(), 1u);      // the intact line survives
  EXPECT_EQ(restored.poisoned(), 1u);  // the corrupted one is dropped
  // Exactly one of the two mutants now misses (save order is unordered) —
  // i.e. the poisoned solve is simply re-run, never trusted.
  const int live =
      (restored.Lookup(TestKey(16, "m@n1#s1")).has_value() ? 1 : 0) +
      (restored.Lookup(TestKey(16, "m@n2#s1")).has_value() ? 1 : 0);
  EXPECT_EQ(live, 1);
  std::remove(path.c_str());
}

// Two entries exactly as the previous release's SolveCache::Save wrote them
// (Dump sorts the keys; the second entry carries provenance).
constexpr std::string_view kParentCacheFile =
    R"({"crc":"8b920c99","data":{"attempts":1,"cex_cycles":0,)"
    R"("classification":"survived","config":"c0f1c0f1c0f1c0f1","depth":12,)"
    R"("design":"d16e57d16e57d16e","kind":"none",)"
    R"("mutant":"const@n7#seed=0xa9ed"}})"
    "\n"
    R"({"crc":"7d022f0e","data":{"attempts":2,"cex_cycles":5,)"
    R"("classification":"detected-by-FC","config":"c0f1c0f1c0f1c0f1",)"
    R"("depth":16,"design":"d16e57d16e57d16e","kind":"FC",)"
    R"("mutant":"op-swap@n42#seed=0xa9ed","trace_id":"00c0ffee12345678"}})"
    "\n";

TEST(SolveCacheTest, FilesWrittenByThePreviousFormatStillHit) {
  const std::string path =
      "/tmp/aqed_cache_parent_" + std::to_string(::getpid()) + ".jsonl";
  ASSERT_TRUE(support::WriteFileDurable(path, kParentCacheFile).ok());
  SolveCache cache;
  ASSERT_TRUE(cache.Load(path).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.poisoned(), 0u);

  const auto survived = cache.Lookup(TestKey(12, "const@n7#seed=0xa9ed"));
  ASSERT_TRUE(survived.has_value());
  EXPECT_EQ(survived->classification, fault::Classification::kSurvived);
  EXPECT_EQ(survived->kind, core::BugKind::kNone);
  EXPECT_EQ(survived->cex_cycles, 0u);
  EXPECT_EQ(survived->attempts, 1u);
  EXPECT_EQ(survived->trace_id, 0u);
  const auto detected = cache.Lookup(TestKey(16, "op-swap@n42#seed=0xa9ed"));
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(detected->classification, fault::Classification::kDetectedFc);
  EXPECT_EQ(detected->kind, core::BugKind::kFunctionalConsistency);
  EXPECT_EQ(detected->cex_cycles, 5u);
  EXPECT_EQ(detected->attempts, 2u);
  EXPECT_EQ(detected->trace_id, 0x00c0ffee12345678u);
  EXPECT_EQ(cache.hits(), 2u);

  // Saving writes the same bytes back: the line format did not move.
  SolveCache one;
  one.Store(TestKey(16, "op-swap@n42#seed=0xa9ed"), *detected);
  ASSERT_TRUE(one.Save(path).ok());
  const StatusOr<std::string> saved = support::ReadFileToString(path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.value(), kParentCacheFile.substr(kParentCacheFile.find(
                               "{\"crc\":\"7d022f0e\"")));
  std::remove(path.c_str());
}

TEST(SolveCacheTest, OutOfRangeCountsPoisonTheLineInsteadOfWrapping) {
  const std::string path =
      "/tmp/aqed_cache_range_" + std::to_string(::getpid()) + ".jsonl";
  const std::string valid =
      R"({"attempts":2,"cex_cycles":5,"classification":"detected-by-FC",)"
      R"("config":"c0f1c0f1c0f1c0f1","depth":16,"design":"d16e57d16e57d16e",)"
      R"("kind":"FC","mutant":"m@n1#s1"})";
  std::string contents = support::SealRecord(valid);
  // Correctly sealed lines whose uint32 fields do not fit: 2^32 + 16 must
  // not come back as depth 16, nor 1e300 as anything at all.
  for (const auto& [from, to] :
       {std::pair{"\"depth\":16", "\"depth\":4294967312"},
        {"\"depth\":16", "\"depth\":1e300"},
        {"\"depth\":16", "\"depth\":-16"},
        {"\"cex_cycles\":5", "\"cex_cycles\":4294967301"},
        {"\"attempts\":2", "\"attempts\":4294967298"},
        {"\"attempts\":2", "\"attempts\":2.5"}}) {
    std::string payload = valid;
    payload.replace(payload.find(from), std::string_view(from).size(), to);
    contents += support::SealRecord(payload);
  }
  ASSERT_TRUE(support::WriteFileDurable(path, contents).ok());
  SolveCache cache;
  ASSERT_TRUE(cache.Load(path).ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.poisoned(), 6u);
  const auto hit = cache.Lookup(TestKey(16, "m@n1#s1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cex_cycles, 5u);
  EXPECT_EQ(hit->attempts, 2u);
  std::remove(path.c_str());
}

TEST(SolveCacheTest, SaveTrimsLeastRecentlyUsedEntriesToTheBound) {
  const std::string path =
      "/tmp/aqed_cache_lru_" + std::to_string(::getpid()) + ".jsonl";
  SolveCache cache;
  cache.SetMaxEntries(2);
  cache.Store(TestKey(16, "m@n1#s1"), DetectedVerdict());
  cache.Store(TestKey(16, "m@n2#s1"), DetectedVerdict());
  cache.Store(TestKey(16, "m@n3#s1"), DetectedVerdict());
  // A hit refreshes recency: touch the oldest entry so the *middle* one is
  // now least-recently-used and gets trimmed instead.
  ASSERT_TRUE(cache.Lookup(TestKey(16, "m@n1#s1")).has_value());
  EXPECT_EQ(cache.size(), 3u);  // the bound is enforced at save, not store
  EXPECT_EQ(cache.evicted(), 0u);

  ASSERT_TRUE(cache.Save(path).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evicted(), 1u);
  EXPECT_TRUE(cache.Lookup(TestKey(16, "m@n1#s1")).has_value());
  EXPECT_FALSE(cache.Lookup(TestKey(16, "m@n2#s1")).has_value());
  EXPECT_TRUE(cache.Lookup(TestKey(16, "m@n3#s1")).has_value());

  // The persisted file holds only the survivors.
  SolveCache restored;
  ASSERT_TRUE(restored.Load(path).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_FALSE(restored.Lookup(TestKey(16, "m@n2#s1")).has_value());
  std::remove(path.c_str());
}

TEST(SolveCacheTest, UnboundedCacheNeverEvicts) {
  const std::string path =
      "/tmp/aqed_cache_unbounded_" + std::to_string(::getpid()) + ".jsonl";
  SolveCache cache;  // default max_entries = 0 = unbounded
  for (int i = 0; i < 8; ++i) {
    cache.Store(TestKey(16, "m@n" + std::to_string(i) + "#s1"),
                DetectedVerdict());
  }
  ASSERT_TRUE(cache.Save(path).ok());
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evicted(), 0u);
  std::remove(path.c_str());
}

TEST(SolveCacheTest, StoreFailpointFailsTheSaveNotTheCache) {
  const std::string path =
      "/tmp/aqed_cache_failpoint_" + std::to_string(::getpid()) + ".jsonl";
  SolveCache cache;
  cache.Store(TestKey(), DetectedVerdict());
  failpoint::Arm("service.cache.store", {FailpointAction::kReturnError});
  const Status failed = cache.Save(path);
  failpoint::DisarmAll();
  EXPECT_FALSE(failed.ok());
  // The in-memory cache is unharmed and the next save succeeds.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Save(path).ok());
  std::remove(path.c_str());
}

// --- campaign through the cache ---------------------------------------------

// The one-deep toy accelerator shared with sched/fault tests: capture when
// idle, respond next cycle with in + 1.
core::AcceleratorBuilder ToyBuilder() {
  return [](ir::TransitionSystem& ts) {
    auto& ctx = ts.ctx();
    const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
    const NodeRef in_data = ts.AddInput("in_data", Sort::BitVec(8));
    const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
    const NodeRef held = core::Reg(ts, "held", 8, 0);
    const NodeRef out_pending = core::Reg(ts, "out_pending", 1, 0);

    const NodeRef in_ready = ctx.Not(out_pending);
    const NodeRef capture = ctx.And(in_valid, in_ready);
    const NodeRef drain = ctx.And(out_pending, host_ready);

    core::LatchWhen(ts, held, capture, in_data);
    ts.SetNext(out_pending,
               ctx.Ite(capture, ctx.True(),
                       ctx.Ite(drain, ctx.False(), out_pending)));

    core::AcceleratorInterface acc;
    acc.in_valid = in_valid;
    acc.in_ready = in_ready;
    acc.host_ready = host_ready;
    acc.out_valid = out_pending;
    acc.data_elems = {{in_data}};
    acc.out_elems = {{ctx.Add(held, ctx.Const(8, 1))}};
    return acc;
  };
}

std::vector<fault::DesignUnderTest> ToyDesigns() {
  core::AqedOptions options;
  options.bmc.max_bound = 6;
  return {{"toy", ToyBuilder(), options, nullptr, {}}};
}

fault::FaultCampaignOptions ToyCampaign(fault::CampaignCache* cache) {
  fault::FaultCampaignOptions options;
  options.num_mutants = 8;
  options.session.jobs = 2;
  options.cache = cache;
  return options;
}

TEST(CampaignCacheTest, ReplayIsServedEntirelyFromCache) {
  const auto designs = ToyDesigns();
  SolveCache cache;
  CampaignCacheAdapter adapter(cache);

  const auto cold = fault::RunFaultCampaign(designs, ToyCampaign(&adapter));
  ASSERT_EQ(cold.mutants.size(), 8u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.mutants.size());

  const auto warm = fault::RunFaultCampaign(designs, ToyCampaign(&adapter));
  EXPECT_EQ(warm.cache_hits, warm.mutants.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  // The acceptance contract: a fully-cached replay classifies
  // bit-identically to the run that populated the cache.
  EXPECT_EQ(warm.ClassificationDigest(), cold.ClassificationDigest());
}

TEST(CampaignCacheTest, DepthChangeMissesTheCache) {
  auto designs = ToyDesigns();
  SolveCache cache;
  CampaignCacheAdapter adapter(cache);
  (void)fault::RunFaultCampaign(designs, ToyCampaign(&adapter));
  ASSERT_GT(cache.size(), 0u);

  // A deeper bound is a different solve: every lookup must miss.
  designs[0].options.bmc.max_bound = 7;
  const auto deeper = fault::RunFaultCampaign(designs, ToyCampaign(&adapter));
  EXPECT_EQ(deeper.cache_hits, 0u);
  EXPECT_EQ(deeper.cache_misses, deeper.mutants.size());
}

// --- wire protocol -----------------------------------------------------------

TEST(ProtocolTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], "{\"type\":\"ping\"}").ok());
  ASSERT_TRUE(WriteFrame(fds[1], "").ok());
  StatusOr<std::string> first = ReadFrame(fds[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "{\"type\":\"ping\"}");
  StatusOr<std::string> second = ReadFrame(fds[0]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), "");
  ::close(fds[1]);
  EXPECT_FALSE(ReadFrame(fds[0]).ok());  // EOF is an error, not a frame
  ::close(fds[0]);
}

TEST(ProtocolTest, MalformedLengthLinesAreRejected) {
  for (const char* wire : {"abc\n{}\n", "123456789\n",
                           "5\n{}x\n",  // payload shorter than advertised
                           "\n{}\n"}) {
    const std::string_view text(wire);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], text.data(), text.size()),
              static_cast<ssize_t>(text.size()));
    ::close(fds[1]);
    EXPECT_FALSE(ReadFrame(fds[0]).ok()) << wire;
    ::close(fds[0]);
  }
}

TEST(ProtocolTest, CampaignRequestRoundTrips) {
  CampaignRequest request;
  request.tenant = "ci";
  request.designs = {"memctrl-fifo", "alu"};
  request.num_mutants = 17;
  request.seed = 0xFFFF'FFFF'FFFF'FFF7ull;  // above 2^53: doubles would lose it
  request.with_aes = true;
  request.baseline = true;
  request.jobs = 3;
  request.deadline_ms = 1500;
  request.memory_budget_mb = 256;
  request.retries = 2;

  const std::string payload = EncodeCampaignRequest(request);
  const auto json = telemetry::ParseJson(payload);
  ASSERT_TRUE(json.has_value());
  ASSERT_EQ(RequestType(*json), std::make_optional<std::string>("campaign"));
  StatusOr<CampaignRequest> decoded = DecodeCampaignRequest(*json);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const CampaignRequest& r = decoded.value();
  EXPECT_EQ(r.tenant, "ci");
  EXPECT_EQ(r.designs, request.designs);
  EXPECT_EQ(r.num_mutants, 17u);
  EXPECT_EQ(r.seed, request.seed);
  EXPECT_TRUE(r.with_aes);
  EXPECT_TRUE(r.baseline);
  EXPECT_EQ(r.jobs, 3u);
  EXPECT_EQ(r.deadline_ms, 1500u);
  EXPECT_EQ(r.memory_budget_mb, 256u);
  EXPECT_EQ(r.retries, 2u);
}

TEST(ProtocolTest, CampaignRequestRejectsCountsOutsideUint32) {
  for (const char* field :
       {"mutants", "jobs", "deadline_ms", "memory_budget_mb", "retries"}) {
    // 2^32 + 1 used to decode as 1; 1e300 used to be a UB cast.
    for (const char* value :
         {"4294967296", "4294967297", "1e300", "-1", "1.5", "\"7\""}) {
      const std::string text = std::string(R"({"type":"campaign",)") + "\"" +
                               field + "\":" + value + "}";
      const auto json = telemetry::ParseJson(text);
      ASSERT_TRUE(json.has_value()) << text;
      const StatusOr<CampaignRequest> decoded = DecodeCampaignRequest(*json);
      ASSERT_FALSE(decoded.ok()) << text;
      EXPECT_NE(decoded.status().message().find(field), std::string::npos)
          << decoded.status().message();
    }
  }
  // The uint32 bounds themselves decode; absent fields keep their defaults.
  const auto json = telemetry::ParseJson(
      R"({"type":"campaign","mutants":4294967295,"retries":0})");
  ASSERT_TRUE(json.has_value());
  const StatusOr<CampaignRequest> decoded = DecodeCampaignRequest(*json);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().num_mutants, UINT32_MAX);
  EXPECT_EQ(decoded.value().retries, 0u);
  EXPECT_EQ(decoded.value().jobs, CampaignRequest{}.jobs);
}

TEST(ProtocolTest, CampaignResponseRoundTripsA64BitDigest) {
  CampaignResponse response;
  response.ok = true;
  response.digest = 0xFEDC'BA98'7654'3210ull;
  response.mutants = 60;
  response.classified = 59;
  response.cache_hits = 41;
  response.cache_misses = 19;
  response.wall_seconds = 12.5;
  response.table = "design  mutants\ntoy  60\n";

  StatusOr<CampaignResponse> decoded =
      DecodeCampaignResponse(EncodeCampaignResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const CampaignResponse& r = decoded.value();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.digest, response.digest);
  EXPECT_EQ(r.mutants, 60u);
  EXPECT_EQ(r.classified, 59u);
  EXPECT_EQ(r.cache_hits, 41u);
  EXPECT_EQ(r.cache_misses, 19u);
  EXPECT_DOUBLE_EQ(r.wall_seconds, 12.5);
  EXPECT_EQ(r.table, response.table);
}

TEST(ProtocolTest, MintedTraceIdsAreNonzeroAndDistinct) {
  const uint64_t a = MintTraceId();
  const uint64_t b = MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);  // the process-local counter alone guarantees this
}

TEST(ProtocolTest, TraceIdRoundTripsOnCampaignMessages) {
  CampaignRequest request;
  request.trace_id = 0xFFF0'0000'0000'0001ull;  // above 2^53: hex on the wire
  const std::string payload = EncodeCampaignRequest(request);
  const auto json = telemetry::ParseJson(payload);
  ASSERT_TRUE(json.has_value());
  StatusOr<CampaignRequest> decoded = DecodeCampaignRequest(*json);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().trace_id, request.trace_id);

  // A request without the field decodes as untraced (backward compatible
  // with captured pre-tracing batch files).
  const auto bare = telemetry::ParseJson(
      "{\"type\":\"campaign\",\"tenant\":\"ci\",\"mutants\":4}");
  ASSERT_TRUE(bare.has_value());
  StatusOr<CampaignRequest> untraced = DecodeCampaignRequest(*bare);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced.value().trace_id, 0u);

  CampaignResponse response;
  response.ok = true;
  response.trace_id = request.trace_id;
  response.digest = 0x1234'5678'9ABC'DEF0ull;
  StatusOr<CampaignResponse> echoed =
      DecodeCampaignResponse(EncodeCampaignResponse(response));
  ASSERT_TRUE(echoed.ok());
  EXPECT_EQ(echoed.value().trace_id, request.trace_id);
}

TEST(ProtocolTest, StatusResponseRoundTrips) {
  StatusResponse status;
  status.ok = true;
  status.uptime_seconds = 12.5;
  status.requests = (1ull << 60) + 7;  // above 2^53: hex on the wire
  status.live_requests = 2;
  status.accepted = 10;
  status.rejected = 3;
  status.connections = 4;
  status.executors = 2;
  status.max_live = 4;
  status.max_tenant_live = 2;
  status.tenants = {{"ci", 1}, {"nightly", 0}};
  status.cache_entries = 100;
  status.cache_hits = 70;
  status.cache_misses = 30;
  status.cache_evicted = 5;
  status.governor_pressure = 2;
  status.request_p50_ms = 1.5;
  status.request_p95_ms = 8.25;
  status.request_p99_ms = 9.75;

  StatusOr<StatusResponse> decoded =
      DecodeStatusResponse(EncodeStatusResponse(status));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const StatusResponse& s = decoded.value();
  EXPECT_TRUE(s.ok);
  EXPECT_DOUBLE_EQ(s.uptime_seconds, 12.5);
  EXPECT_EQ(s.requests, status.requests);
  EXPECT_EQ(s.live_requests, 2u);
  EXPECT_EQ(s.accepted, 10u);
  EXPECT_EQ(s.rejected, 3u);
  EXPECT_EQ(s.connections, 4u);
  EXPECT_EQ(s.executors, 2u);
  EXPECT_EQ(s.max_live, 4u);
  EXPECT_EQ(s.max_tenant_live, 2u);
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].name, "ci");
  EXPECT_EQ(s.tenants[0].live, 1u);
  EXPECT_EQ(s.tenants[1].name, "nightly");
  EXPECT_EQ(s.tenants[1].live, 0u);
  EXPECT_EQ(s.cache_entries, 100u);
  EXPECT_EQ(s.cache_hits, 70u);
  EXPECT_EQ(s.cache_misses, 30u);
  EXPECT_EQ(s.cache_evicted, 5u);
  EXPECT_EQ(s.governor_pressure, 2);
  EXPECT_DOUBLE_EQ(s.request_p50_ms, 1.5);
  EXPECT_DOUBLE_EQ(s.request_p95_ms, 8.25);
  EXPECT_DOUBLE_EQ(s.request_p99_ms, 9.75);
}

TEST(ProtocolTest, HealthAndMetricsResponsesRoundTrip) {
  HealthResponse health;
  health.ok = true;
  health.state = "stopping";
  health.uptime_seconds = 3.5;
  StatusOr<HealthResponse> decoded_health =
      DecodeHealthResponse(EncodeHealthResponse(health));
  ASSERT_TRUE(decoded_health.ok());
  EXPECT_TRUE(decoded_health.value().ok);
  EXPECT_EQ(decoded_health.value().state, "stopping");
  EXPECT_DOUBLE_EQ(decoded_health.value().uptime_seconds, 3.5);

  MetricsResponse metrics;
  metrics.ok = true;
  metrics.prometheus =
      "# TYPE service_requests counter\nservice_requests 7\n";
  StatusOr<MetricsResponse> decoded_metrics =
      DecodeMetricsResponse(EncodeMetricsResponse(metrics));
  ASSERT_TRUE(decoded_metrics.ok());
  EXPECT_TRUE(decoded_metrics.value().ok);
  EXPECT_EQ(decoded_metrics.value().prometheus, metrics.prometheus);

  // The three introspection requests carry distinct type discriminators.
  for (const auto& [payload, expected] :
       {std::pair{EncodeStatusRequest(), "status"},
        std::pair{EncodeMetricsRequest(), "metrics"},
        std::pair{EncodeHealthRequest(), "health"}}) {
    const auto json = telemetry::ParseJson(payload);
    ASSERT_TRUE(json.has_value());
    EXPECT_EQ(RequestType(*json), std::make_optional<std::string>(expected));
  }
}

TEST(ProtocolTest, ErrorsAndStatsRoundTrip) {
  EXPECT_TRUE(IsOkResponse(EncodePong()));
  const std::string error = EncodeError("tenant 'ci' over quota");
  EXPECT_FALSE(IsOkResponse(error));
  StatusOr<CampaignResponse> as_campaign = DecodeCampaignResponse(error);
  ASSERT_TRUE(as_campaign.ok());
  EXPECT_FALSE(as_campaign.value().ok);
  EXPECT_EQ(as_campaign.value().error, "tenant 'ci' over quota");

  StatusResponse status;
  status.ok = true;
  status.live_requests = 2;
  status.accepted = 10;
  status.rejected = 3;
  status.cache_entries = 100;
  status.cache_hits = 70;
  status.cache_misses = 30;
  StatusOr<StatusResponse> decoded =
      DecodeStatusResponse(EncodeStatusResponse(status));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().live_requests, 2u);
  EXPECT_EQ(decoded.value().accepted, 10u);
  EXPECT_EQ(decoded.value().rejected, 3u);
  EXPECT_EQ(decoded.value().cache_entries, 100u);
  EXPECT_EQ(decoded.value().cache_hits, 70u);
  EXPECT_EQ(decoded.value().cache_misses, 30u);
}

// --- server end to end -------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return "/tmp/aqed_svc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

CampaignRequest AluRequest() {
  CampaignRequest request;
  request.designs = {"alu"};
  request.num_mutants = 6;
  request.seed = 7;
  request.jobs = 2;
  return request;
}

TEST(ServerTest, CampaignDigestMatchesADirectRunAndReplaysFromCache) {
  ServerOptions options;
  options.socket_path = TestSocketPath("digest");
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  ASSERT_TRUE(client.Ping().ok());

  StatusOr<CampaignResponse> cold = client.RunCampaign(AluRequest());
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  ASSERT_TRUE(cold.value().ok) << cold.value().error;
  EXPECT_EQ(cold.value().mutants, 6u);
  EXPECT_EQ(cold.value().cache_hits, 0u);

  // The same campaign straight through the fault layer: same catalog entry,
  // same session governance the server derives from the request.
  const auto catalog = BuiltinDesigns({.with_aes = false});
  const fault::DesignUnderTest* alu = FindDesign(catalog, "alu");
  ASSERT_NE(alu, nullptr);
  fault::FaultCampaignOptions direct;
  direct.num_mutants = 6;
  direct.seed = 7;
  direct.session.jobs = 2;
  direct.session.retry.max_retries = 4;
  const std::vector<fault::DesignUnderTest> selected{*alu};
  const auto reference = fault::RunFaultCampaign(selected, direct);
  EXPECT_EQ(cold.value().digest, reference.ClassificationDigest());

  // Replay: every mutant is already decided; ISSUE asks for >= 90% hits.
  StatusOr<CampaignResponse> warm = client.RunCampaign(AluRequest());
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm.value().ok) << warm.value().error;
  EXPECT_EQ(warm.value().digest, cold.value().digest);
  EXPECT_GE(warm.value().cache_hits, 6u * 9 / 10);
  EXPECT_EQ(warm.value().cache_misses, 0u);

  StatusOr<StatusResponse> status = client.ServerStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status.value().ok);
  EXPECT_EQ(status.value().cache_entries, 6u);
  server.Stop();
}

TEST(ServerTest, UnknownDesignsAndTypesAreRejectedNotFatal) {
  ServerOptions options;
  options.socket_path = TestSocketPath("reject");
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  CampaignRequest bogus;
  bogus.designs = {"no-such-design"};
  StatusOr<CampaignResponse> response = client.RunCampaign(bogus);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response.value().ok);
  EXPECT_NE(response.value().error.find("no-such-design"), std::string::npos);
  // The rejection is the remote client's design listing: it must name the
  // catalog entries, not just the bad name.
  EXPECT_NE(response.value().error.find("catalog:"), std::string::npos);
  EXPECT_NE(response.value().error.find("alu"), std::string::npos);

  StatusOr<std::string> unknown =
      client.Roundtrip("{\"type\":\"frobnicate\"}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(IsOkResponse(unknown.value()));
  StatusOr<std::string> garbage = client.Roundtrip("not json at all");
  ASSERT_TRUE(garbage.ok());
  EXPECT_FALSE(IsOkResponse(garbage.value()));
  // The connection survived all three rejections.
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(ServerTest, AdmissionLadderRejectsOverQuota) {
  ServerOptions options;
  options.socket_path = TestSocketPath("admission");
  options.max_live = 0;  // every campaign is over the global bound
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  StatusOr<CampaignResponse> rejected = client.RunCampaign(AluRequest());
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().ok);
  EXPECT_NE(rejected.value().error.find("saturated"), std::string::npos);
  EXPECT_EQ(server.rejected(), 1u);
  // Pings are not campaigns; they bypass admission entirely.
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

TEST(ServerTest, PerTenantQuotaIsIndependentOfTheGlobalBound) {
  ServerOptions options;
  options.socket_path = TestSocketPath("tenant");
  options.max_live = 4;
  options.max_tenant_live = 0;  // every tenant is over quota
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  CampaignRequest request = AluRequest();
  request.tenant = "greedy";
  StatusOr<CampaignResponse> rejected = client.RunCampaign(request);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().ok);
  EXPECT_NE(rejected.value().error.find("greedy"), std::string::npos);
  server.Stop();
}

TEST(ServerTest, FourConcurrentClientsAreRaceClean) {
  // The TSan target: four clients hammer one server — pings, status, and
  // campaigns that share the solve cache — while the server multiplexes
  // them over its executor pool.
  ServerOptions options;
  options.socket_path = TestSocketPath("race");
  options.executors = 4;
  options.max_live = 4;
  options.max_tenant_live = 4;
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client(options.socket_path);
      if (!client.Ping().ok()) ++failures;
      // Interleave introspection with the campaign: status/metrics/health
      // read the same live state the campaign path mutates, which is
      // exactly what TSan is here to check.
      if (!client.ServerStatus().ok()) ++failures;
      CampaignRequest request = AluRequest();
      request.tenant = "tenant-" + std::to_string(c);
      StatusOr<CampaignResponse> response = client.RunCampaign(request);
      if (!response.ok() || !response.value().ok) ++failures;
      if (!client.Health().ok()) ++failures;
      if (!client.Metrics().ok()) ++failures;
      if (!client.ServerStatus().ok()) ++failures;
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.accepted(), 4u);
  // Every request was counted: 4 clients x 6 requests.
  EXPECT_GE(server.requests(), 24u);
  server.Stop();
}

TEST(ServerTest, AcceptFailpointDropsOneConnectionServerSurvives) {
  ServerOptions options;
  options.socket_path = TestSocketPath("chaos");
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  failpoint::Arm("service.accept",
                 {FailpointAction::kReturnError, /*skip=*/0, /*limit=*/1});
  Client dropped(options.socket_path);
  // The connect itself lands in the backlog, so the failure surfaces as a
  // dead stream on first use — the client treats that as a retryable error.
  EXPECT_FALSE(dropped.Ping().ok());
  failpoint::DisarmAll();

  Client retry(options.socket_path);
  EXPECT_TRUE(retry.Ping().ok());
  server.Stop();
}

TEST(ServerTest, CacheSurvivesARestart) {
  const std::string cache_path =
      "/tmp/aqed_svc_restart_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(cache_path.c_str());
  ServerOptions options;
  options.socket_path = TestSocketPath("restart");
  options.cache_path = cache_path;
  uint64_t cold_digest = 0;
  {
    AqedServer server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client(options.socket_path);
    StatusOr<CampaignResponse> cold = client.RunCampaign(AluRequest());
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(cold.value().ok) << cold.value().error;
    cold_digest = cold.value().digest;
    server.Stop();  // persists the cache
  }
  {
    AqedServer server(options);
    ASSERT_TRUE(server.Start().ok());  // loads the cache
    Client client(options.socket_path);
    StatusOr<CampaignResponse> warm = client.RunCampaign(AluRequest());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.value().ok) << warm.value().error;
    EXPECT_EQ(warm.value().digest, cold_digest);
    EXPECT_EQ(warm.value().cache_misses, 0u);
    server.Stop();
  }
  std::remove(cache_path.c_str());
}

// --- observability plane -----------------------------------------------------

TEST(ServerTest, CampaignTraceIdIsEchoedAndStampedIntoCacheProvenance) {
  const std::string cache_path =
      "/tmp/aqed_svc_trace_" + std::to_string(::getpid()) + ".jsonl";
  std::remove(cache_path.c_str());
  ServerOptions options;
  options.socket_path = TestSocketPath("trace");
  options.cache_path = cache_path;
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  // The typed client mints an id; the response must echo a nonzero one.
  StatusOr<CampaignResponse> minted = client.RunCampaign(AluRequest());
  ASSERT_TRUE(minted.ok());
  ASSERT_TRUE(minted.value().ok) << minted.value().error;
  EXPECT_NE(minted.value().trace_id, 0u);

  // An explicit id (above 2^53, so the hex wire spelling is load-bearing)
  // must come back verbatim...
  CampaignRequest request = AluRequest();
  request.seed = 11;  // fresh mutants: this run stores entries of its own
  request.trace_id = 0xFEED'FACE'CAFE'F00Dull;
  StatusOr<CampaignResponse> pinned = client.RunCampaign(request);
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(pinned.value().ok) << pinned.value().error;
  EXPECT_EQ(pinned.value().trace_id, request.trace_id);

  server.Stop();

  // ...and every cache entry that campaign paid for carries it as
  // provenance in the persisted file.
  StatusOr<std::string> persisted = support::ReadFileToString(cache_path);
  ASSERT_TRUE(persisted.ok());
  EXPECT_NE(persisted.value().find("\"trace_id\":\"feedfacecafef00d\""),
            std::string::npos);
  std::remove(cache_path.c_str());
}

TEST(ServerTest, StatusReportsBothTenantsOfAConcurrentPair) {
  ServerOptions options;
  options.socket_path = TestSocketPath("status");
  options.executors = 3;  // two campaigns + the status poller
  options.max_live = 4;
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> failures{0};
  std::atomic<int> finished{0};
  std::vector<std::thread> tenants;
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    tenants.emplace_back([&, tenant] {
      Client client(options.socket_path);
      CampaignRequest request = AluRequest();
      request.tenant = tenant;
      request.num_mutants = 16;  // long enough for the poller to catch live
      StatusOr<CampaignResponse> response = client.RunCampaign(request);
      if (!response.ok() || !response.value().ok) ++failures;
      ++finished;
    });
  }

  // Poll until one status snapshot shows both tenants in flight at once
  // (or both campaigns drain — then the snapshot we want can't come).
  bool both_live = false;
  {
    Client poller(options.socket_path);
    while (!both_live && finished.load() < 2) {
      StatusOr<StatusResponse> status = poller.ServerStatus();
      if (!status.ok() || !status.value().ok) {
        ++failures;
        break;
      }
      uint32_t live = 0;
      for (const StatusResponse::Tenant& tenant : status.value().tenants) {
        if (tenant.live > 0) ++live;
      }
      both_live = live >= 2;
      if (status.value().uptime_seconds > 60) break;  // watchdog
    }
  }
  for (std::thread& thread : tenants) thread.join();
  EXPECT_TRUE(both_live);
  EXPECT_EQ(failures.load(), 0);

  // Drained: both tenants remain listed, with zero in flight.
  Client client(options.socket_path);
  StatusOr<StatusResponse> final_status = client.ServerStatus();
  ASSERT_TRUE(final_status.ok());
  ASSERT_TRUE(final_status.value().ok);
  const StatusResponse& s = final_status.value();
  ASSERT_EQ(s.tenants.size(), 2u);
  for (const StatusResponse::Tenant& tenant : s.tenants) {
    EXPECT_EQ(tenant.live, 0u) << tenant.name;
  }
  EXPECT_EQ(s.live_requests, 0u);
  EXPECT_GT(s.requests, 2u);
  EXPECT_GT(s.uptime_seconds, 0.0);
  server.Stop();
}

TEST(ServerTest, MetricsRequestCarriesParseableExpositionOfLiveState) {
  ServerOptions options;
  options.socket_path = TestSocketPath("expo");
  AqedServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Client client(options.socket_path);
  ASSERT_TRUE(client.RunCampaign(AluRequest()).ok());
  StatusOr<MetricsResponse> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  ASSERT_TRUE(metrics.value().ok);
  const std::string& text = metrics.value().prometheus;
  // Pre-registration means the full service name set is present even for
  // metrics that have never fired on this server.
  for (const char* name :
       {"service_requests", "service_admission_rejected",
        "service_cache_hits", "service_cache_evicted",
        "service_sessions_live", "governor_pressure",
        "service_request_ms_bucket", "service_request_ms_sum",
        "service_request_ms_count"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  server.Stop();
}

}  // namespace
}  // namespace aqed::service
