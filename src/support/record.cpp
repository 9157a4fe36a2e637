#include "support/record.h"

#include <array>
#include <cinttypes>
#include <cstdio>

namespace aqed::support {

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

// The fixed line skeleton around the 8-hex-digit CRC and the payload:
//   {"crc":"1a2b3c4d","data":{...}}
constexpr std::string_view kCrcPrefix = "{\"crc\":\"";
constexpr size_t kCrcDigits = 8;
constexpr std::string_view kDataInfix = "\",\"data\":";
constexpr std::string_view kLineSuffix = "}";

}  // namespace

uint32_t Crc32(std::string_view data) {
  // Table-driven, in-tree so the record format needs no zlib; the table
  // builds once.
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char c : data) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<uint8_t>(c)) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint64_t MixBytes(uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t MixInt(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t MixText(uint64_t hash, std::string_view text) {
  return MixInt(MixBytes(hash, text), text.size());
}

std::string Hex64(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

std::optional<uint64_t> ParseHex(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  uint64_t value = 0;
  for (const char c : text) {
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') digit = static_cast<uint64_t>(c - 'A' + 10);
    else return std::nullopt;
    value = value << 4 | digit;
  }
  return value;
}

std::string SealRecord(std::string_view payload) {
  char crc[kCrcDigits + 1];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(payload));
  std::string line;
  line.reserve(kCrcPrefix.size() + kCrcDigits + kDataInfix.size() +
               payload.size() + kLineSuffix.size() + 1);
  line += kCrcPrefix;
  line += crc;
  line += kDataInfix;
  line += payload;
  line += kLineSuffix;
  line += '\n';
  return line;
}

std::optional<std::string_view> OpenRecord(std::string_view line) {
  const size_t header = kCrcPrefix.size() + kCrcDigits + kDataInfix.size();
  if (line.size() < header + kLineSuffix.size() ||
      !line.starts_with(kCrcPrefix) ||
      line.substr(kCrcPrefix.size() + kCrcDigits, kDataInfix.size()) !=
          kDataInfix ||
      !line.ends_with(kLineSuffix)) {
    return std::nullopt;
  }
  const std::optional<uint64_t> expected =
      ParseHex(line.substr(kCrcPrefix.size(), kCrcDigits));
  const std::string_view payload =
      line.substr(header, line.size() - header - kLineSuffix.size());
  if (!expected || Crc32(payload) != *expected) return std::nullopt;
  return payload;
}

}  // namespace aqed::support
