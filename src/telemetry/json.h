// Minimal JSON value model + recursive-descent parser.
//
// Exists so the telemetry exporters can be round-trip-tested (and the
// metrics JSONL re-loaded by tools like aqed-report) without an external
// JSON dependency. Scope is deliberately narrow: the full JSON grammar,
// with \uXXXX escapes decoded to UTF-8 (surrogate pairs included, lone
// surrogates rejected), integer literals kept exact in int64 (doubles lose
// integers above 2^53), and other numbers parsed with strtod. Not a
// general-purpose library — everything this repo writes, it reads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aqed::telemetry {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  explicit Json(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit Json(double value) : kind_(Kind::kNumber), number_(value) {}
  // Integer-valued number: keeps full int64 precision (doubles lose
  // integers above 2^53, which uint64 telemetry counters can exceed).
  explicit Json(int64_t value)
      : kind_(Kind::kNumber),
        is_int_(true),
        int_(value),
        number_(static_cast<double>(value)) {}
  explicit Json(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  // Without this a string literal would pick the bool constructor.
  explicit Json(const char* value) : Json(std::string(value)) {}

  static Json Array(std::vector<Json> items);
  static Json Object(std::map<std::string, Json> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  // True when the number was an integer literal (no '.', no exponent) that
  // fits int64 — AsInt() is then exact even beyond 2^53.
  bool is_integer() const { return is_int_; }
  double AsNumber() const { return number_; }
  // Exact for integer literals; other numbers truncate toward zero and
  // saturate at the int64 limits (NaN reads as 0).
  int64_t AsInt() const;
  const std::string& AsString() const { return string_; }
  const std::vector<Json>& AsArray() const { return array_; }
  const std::map<std::string, Json>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  // Typed member reads for decoding bytes from outside the process: nullopt
  // when `key` is absent or holds another type. GetDouble refuses infinite
  // numbers, GetInt numbers that are not integers in [lo, hi], and GetHex64
  // anything but exactly 16 hex digits.
  std::optional<std::string> GetString(const std::string& key) const;
  std::optional<bool> GetBool(const std::string& key) const;
  std::optional<double> GetDouble(const std::string& key) const;
  std::optional<int64_t> GetInt(const std::string& key, int64_t lo,
                                int64_t hi) const;
  std::optional<uint64_t> GetHex64(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  int64_t int_ = 0;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

// Parses exactly one JSON value spanning the whole input (surrounding
// whitespace allowed); nullopt on any syntax error or trailing garbage.
std::optional<Json> ParseJson(std::string_view text);

// Serializes a value on one line (no insignificant whitespace), suitable for
// JSONL records. Strings escape control characters, quotes, and backslashes;
// integer-tagged numbers print exactly (full int64 range), other numbers
// as AppendJsonDouble writes them. Dump ∘ ParseJson is the identity on
// everything this repo writes, non-finite numbers aside (they read back as
// null).
std::string Dump(const Json& value);

// Appends `text` as a quoted JSON string, escaped as Dump escapes strings.
void AppendJsonString(std::string& out, std::string_view text);

// Appends `value` as Dump writes a non-integer number: %.17g, which
// round-trips through strtod, and `null` for an infinity or NaN, which JSON
// cannot spell.
void AppendJsonDouble(std::string& out, double value);

}  // namespace aqed::telemetry
