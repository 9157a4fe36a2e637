// Support-library tests: bit utilities, deterministic RNG, statistics
// accumulators, status types.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "support/bits.h"
#include "support/record.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/status.h"
#include "support/verdict.h"

namespace aqed {
namespace {

volatile uint64_t benchmark_sink_ = 0;

TEST(BitsTest, WidthMaskAndTruncate) {
  EXPECT_EQ(WidthMask(1), 1u);
  EXPECT_EQ(WidthMask(8), 0xFFu);
  EXPECT_EQ(WidthMask(64), ~uint64_t{0});
  EXPECT_EQ(Truncate(0x1FF, 8), 0xFFu);
  EXPECT_EQ(Truncate(0x1FF, 9), 0x1FFu);
  EXPECT_EQ(Truncate(~uint64_t{0}, 64), ~uint64_t{0});
}

TEST(BitsTest, SignExtend) {
  EXPECT_EQ(SignExtend(0x7F, 8), 127);
  EXPECT_EQ(SignExtend(0x80, 8), -128);
  EXPECT_EQ(SignExtend(0xFF, 8), -1);
  EXPECT_EQ(SignExtend(0x1, 1), -1);
  EXPECT_EQ(SignExtend(0x0, 1), 0);
  EXPECT_EQ(SignExtend(~uint64_t{0}, 64), -1);
}

TEST(BitsTest, GetBit) {
  EXPECT_TRUE(GetBit(0b100, 2));
  EXPECT_FALSE(GetBit(0b100, 1));
  EXPECT_TRUE(GetBit(uint64_t{1} << 63, 63));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(43);
  EXPECT_NE(Rng(42).Next(), c.Next());
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextBitsCanonical) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.NextBits(5), 31u);
    EXPECT_LE(rng.NextBits(1), 1u);
  }
  // Width 64 must produce large values eventually.
  bool high_bit_seen = false;
  for (int i = 0; i < 100; ++i) {
    if (GetBit(rng.NextBits(64), 63)) high_bit_seen = true;
  }
  EXPECT_TRUE(high_bit_seen);
}

TEST(RngTest, ChanceIsRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Chance(1, 4)) ++hits;
  }
  EXPECT_GT(hits, 2200);
  EXPECT_LT(hits, 2800);
  Rng always(10);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(always.Chance(4, 4));
}

TEST(StatsTest, MinAvgMax) {
  MinAvgMax acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.ToString(), "-");
  acc.Add(4);
  acc.Add(8);
  acc.Add(6);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.min(), 4);
  EXPECT_DOUBLE_EQ(acc.avg(), 6);
  EXPECT_DOUBLE_EQ(acc.max(), 8);
  EXPECT_EQ(acc.ToString(0), "4, 6, 8");
}

TEST(StatsTest, StopwatchAdvances) {
  Stopwatch watch;
  uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  benchmark_sink_ = sink;
  EXPECT_GT(watch.ElapsedSeconds(), 0.0);
  const double before = watch.ElapsedSeconds();
  watch.Reset();
  EXPECT_LE(watch.ElapsedSeconds(), before + 1.0);
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().message(), "OK");
  const Status error = Status::Error("boom");
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.message(), "boom");
}

TEST(StatusTest, StatusOr) {
  StatusOr<int> value(7);
  EXPECT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 7);
  StatusOr<int> error(Status::Error("nope"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().message(), "nope");
}

// The verdict vocabulary is wire-stable: journals, solve-cache lines, and
// aqed-server frames persist these names, so every value must round-trip
// through its one string mapping, and no two values may share a name.
TEST(VerdictTest, EveryVerdictRoundTripsExactly) {
  std::set<std::string> names;
  for (const Verdict verdict : kAllVerdicts) {
    const std::string name = ToString(verdict);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name << " is duplicated";
    const auto parsed = VerdictFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, verdict) << name;
  }
  EXPECT_EQ(names.size(), std::size(kAllVerdicts));
  EXPECT_FALSE(VerdictFromString("no-such-verdict").has_value());
  EXPECT_FALSE(VerdictFromString("").has_value());
  EXPECT_FALSE(VerdictFromString("?").has_value());
}

TEST(VerdictTest, EveryUnknownReasonRoundTripsExactly) {
  std::set<std::string> names;
  for (const UnknownReason reason : kAllUnknownReasons) {
    const std::string name = ToString(reason);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name << " is duplicated";
    const auto parsed = UnknownReasonFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, reason) << name;
  }
  EXPECT_EQ(names.size(), std::size(kAllUnknownReasons));
  EXPECT_FALSE(UnknownReasonFromString("Deadline").has_value());  // exact case
}

TEST(VerdictTest, EveryCancelReasonRoundTripsExactly) {
  std::set<std::string> names;
  for (const CancelReason reason : kAllCancelReasons) {
    const std::string name = ToString(reason);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << name << " is duplicated";
    const auto parsed = CancelReasonFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, reason) << name;
  }
  EXPECT_EQ(names.size(), std::size(kAllCancelReasons));
  EXPECT_FALSE(CancelReasonFromString("first bug wins").has_value());
}

// --- record codec ------------------------------------------------------------

TEST(RecordTest, HashesMatchPublishedVectors) {
  // IEEE 802.3 check value; FNV-1a 64 reference vector for "a" from the
  // published offset basis.
  EXPECT_EQ(support::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(support::MixBytes(14695981039346656037ull, "a"),
            0xaf63dc4c8601ec8cull);
  // The digests start from the project's own offset instead (see record.h).
  EXPECT_EQ(support::MixBytes(support::kFnvOffset, "a"),
            0x44bd8ad473cd9906ull);
  EXPECT_EQ(support::MixBytes(support::kFnvOffset, ""), support::kFnvOffset);
  // MixText is the bytes followed by the 8-byte length.
  EXPECT_EQ(support::MixText(support::kFnvOffset, "ab"),
            support::MixInt(support::MixBytes(support::kFnvOffset, "ab"), 2));
  EXPECT_NE(support::MixText(support::MixText(support::kFnvOffset, "ab"), "c"),
            support::MixText(support::MixText(support::kFnvOffset, "a"), "bc"));
}

TEST(RecordTest, HexRoundTripsAndRejectsNonHex) {
  EXPECT_EQ(support::Hex64(0), "0000000000000000");
  EXPECT_EQ(support::Hex64(0xFEEDFACECAFEF00Dull), "feedfacecafef00d");
  EXPECT_EQ(support::ParseHex("feedfacecafef00d"), 0xFEEDFACECAFEF00Dull);
  EXPECT_EQ(support::ParseHex("FEEDFACECAFEF00D"), 0xFEEDFACECAFEF00Dull);
  EXPECT_EQ(support::ParseHex("7"), 7u);
  EXPECT_EQ(support::ParseHex(""), std::nullopt);
  EXPECT_EQ(support::ParseHex("10000000000000000"), std::nullopt);  // 17
  EXPECT_EQ(support::ParseHex("+1"), std::nullopt);
  EXPECT_EQ(support::ParseHex(" 1"), std::nullopt);
  EXPECT_EQ(support::ParseHex("0x1"), std::nullopt);
}

TEST(RecordTest, SealedLinesOpenAndDamagedOnesDoNot) {
  const std::string line = support::SealRecord("{\"k\":1}");
  EXPECT_EQ(line, "{\"crc\":\"" +
                      support::Hex64(support::Crc32("{\"k\":1}")).substr(8) +
                      "\",\"data\":{\"k\":1}}\n");
  const std::string_view body(line.data(), line.size() - 1);
  EXPECT_EQ(support::OpenRecord(body), "{\"k\":1}");
  EXPECT_EQ(support::OpenRecord(line), std::nullopt);  // newline included
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_EQ(support::OpenRecord(body.substr(0, cut)), std::nullopt) << cut;
  }
  std::string flipped(body);
  flipped[flipped.size() - 3] = '2';  // the payload's digit
  EXPECT_EQ(support::OpenRecord(flipped), std::nullopt);
  std::string upper(body);
  for (size_t i = 8; i < 16; ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  EXPECT_EQ(support::OpenRecord(upper), "{\"k\":1}");
}

TEST(RecordTest, ScanCountsSkippedLinesAndTornTail) {
  const auto decode = [](std::string_view payload) -> std::optional<int> {
    if (payload == "{\"bad\":0}") return std::nullopt;
    return static_cast<int>(payload.size());
  };
  const std::string good = support::SealRecord("{\"k\":1}");
  const std::string undecodable = support::SealRecord("{\"bad\":0}");
  std::string corrupt = good;
  corrupt[corrupt.size() - 3] = '2';
  std::string text = good + "\n" + corrupt + undecodable + good;
  auto scan = support::ScanRecords(text, decode);
  EXPECT_EQ(scan.records, (std::vector<int>{7, 7}));
  EXPECT_EQ(scan.skipped_records, 2u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, text.size());

  // A torn final append is flagged, not counted, and valid_bytes stops
  // before it. An unterminated line that still opens is kept.
  scan = support::ScanRecords(text + good.substr(0, 10), decode);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, text.size());
  scan = support::ScanRecords(text + good.substr(0, good.size() - 1), decode);
  EXPECT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, text.size() + good.size() - 1);
}

}  // namespace
}  // namespace aqed
