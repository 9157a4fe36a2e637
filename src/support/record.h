// Persisted-record codec: the byte formats that outlive a process.
//
// Three things leave this repo as bytes and come back later, possibly from
// another process: the fault-campaign result journal, the service solve
// cache, and the digests that key them. This module owns every primitive
// those formats share, so each exists once:
//
//   - CRC-32 (IEEE 802.3), the line checksum;
//   - 64-bit FNV-1a mixing, the hash behind every structural, config,
//     cache-key, verdict and classification digest (their exact bytes are
//     part of the persisted formats, so the mixing must never drift);
//   - the 16-hex-digit spelling of a uint64 (JSON numbers are doubles in
//     many readers and lose integers above 2^53);
//   - the CRC-guarded record line: one JSON object per line whose leading
//     "crc" field holds the CRC-32 of its "data" payload as 8 hex digits
//     (record.cpp spells out the skeleton). The CRC sits at a fixed offset,
//     so the payload bytes it covers are located without parsing JSON, and
//     it covers exactly those bytes: a torn write (any strict prefix of a
//     line) and a flipped bit both fail it. ScanRecords reads a whole file
//     of such lines.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace aqed::support {

// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
uint32_t Crc32(std::string_view data);

// FNV-1a, 64-bit. MixBytes folds raw bytes; MixInt folds the 8
// little-endian bytes of `value`; MixText folds the bytes and then the
// length, so ("ab","c") never collides with ("a","bc"). kFnvOffset is not
// the published offset basis (14695981039346656037, one digit longer), but
// every persisted digest starts from it, so it stays.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
uint64_t MixBytes(uint64_t hash, std::string_view bytes);
uint64_t MixInt(uint64_t hash, uint64_t value);
uint64_t MixText(uint64_t hash, std::string_view text);

// `value` as exactly 16 lowercase hex digits.
std::string Hex64(uint64_t value);

// The value of 1 to 16 hex digits (either case); nullopt on anything else.
std::optional<uint64_t> ParseHex(std::string_view text);

// `payload` (one line of JSON) as its CRC-guarded record line, trailing
// '\n' included.
std::string SealRecord(std::string_view payload);

// The payload of one record line (no trailing newline); nullopt when the
// skeleton is malformed or the CRC does not match.
std::optional<std::string_view> OpenRecord(std::string_view line);

template <typename T>
struct RecordScan {
  std::vector<T> records;  // decoded records, in file order
  // Complete lines that failed the CRC or the decoder.
  size_t skipped_records = 0;
  // The file ended in an unterminated line that did not decode: a torn
  // write. (An unterminated line that does decode is kept.)
  bool torn_tail = false;
  // Length of the prefix that ends with the last decoded record: what an
  // appender keeps before writing again.
  uint64_t valid_bytes = 0;
};

// Opens every record line of `text` and decodes its payload with
// `decode(std::string_view) -> std::optional<T>`. Empty lines are ignored.
template <typename Decode>
auto ScanRecords(std::string_view text, Decode decode) {
  using T = typename std::invoke_result_t<Decode&,
                                          std::string_view>::value_type;
  RecordScan<T> scan;
  size_t start = 0;
  while (start < text.size()) {
    const size_t newline = text.find('\n', start);
    const bool terminated = newline != std::string_view::npos;
    const size_t end = terminated ? newline : text.size();
    const std::string_view line = text.substr(start, end - start);
    start = terminated ? end + 1 : end;
    if (line.empty()) continue;
    const std::optional<std::string_view> payload = OpenRecord(line);
    std::optional<T> record;
    if (payload) record = decode(*payload);
    if (record) {
      scan.records.push_back(std::move(*record));
      scan.valid_bytes = start;
    } else if (terminated) {
      ++scan.skipped_records;
    } else {
      scan.torn_tail = true;
    }
  }
  return scan;
}

}  // namespace aqed::support
