#include "telemetry/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/record.h"

namespace aqed::telemetry {

Json Json::Array(std::vector<Json> items) {
  Json json;
  json.kind_ = Kind::kArray;
  json.array_ = std::move(items);
  return json;
}

Json Json::Object(std::map<std::string, Json> members) {
  Json json;
  json.kind_ = Kind::kObject;
  json.object_ = std::move(members);
  return json;
}

int64_t Json::AsInt() const {
  if (is_int_) return int_;
  // Casting a double outside int64 is undefined behaviour: clamp first.
  if (std::isnan(number_)) return 0;
  if (number_ <= -0x1p63) return INT64_MIN;
  if (number_ >= 0x1p63) return INT64_MAX;
  return static_cast<int64_t>(number_);
}

const Json* Json::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::optional<std::string> Json::GetString(const std::string& key) const {
  const Json* value = Find(key);
  if (value == nullptr || !value->is_string()) return std::nullopt;
  return value->string_;
}

std::optional<bool> Json::GetBool(const std::string& key) const {
  const Json* value = Find(key);
  if (value == nullptr || value->kind_ != Kind::kBool) return std::nullopt;
  return value->bool_;
}

std::optional<double> Json::GetDouble(const std::string& key) const {
  const Json* value = Find(key);
  // Finite only: "1e999" parses as infinity, which Dump cannot write back.
  if (value == nullptr || !value->is_number() ||
      !std::isfinite(value->number_)) {
    return std::nullopt;
  }
  return value->number_;
}

std::optional<int64_t> Json::GetInt(const std::string& key, int64_t lo,
                                    int64_t hi) const {
  const Json* value = Find(key);
  if (value == nullptr || !value->is_number()) return std::nullopt;
  // A non-literal number counts only when it is integral and inside int64
  // (AsInt would clamp anything else).
  if (!value->is_int_ &&
      !(std::trunc(value->number_) == value->number_ &&
        value->number_ >= -0x1p63 && value->number_ < 0x1p63)) {
    return std::nullopt;
  }
  const int64_t number = value->AsInt();
  if (number < lo || number > hi) return std::nullopt;
  return number;
}

std::optional<uint64_t> Json::GetHex64(const std::string& key) const {
  const Json* value = Find(key);
  if (value == nullptr || !value->is_string() || value->string_.size() != 16) {
    return std::nullopt;
  }
  return support::ParseHex(value->string_);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> Parse() {
    std::optional<Json> value = ParseValue();
    if (!value) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case 'n':
        return ConsumeWord("null") ? std::optional<Json>(Json())
                                   : std::nullopt;
      case 't':
        return ConsumeWord("true") ? std::optional<Json>(Json(true))
                                   : std::nullopt;
      case 'f':
        return ConsumeWord("false") ? std::optional<Json>(Json(false))
                                    : std::nullopt;
      case '"':
        return ParseString();
      case '[':
        return ParseArray();
      case '{':
        return ParseObject();
      default:
        return ParseNumber();
    }
  }

  // Four hex digits after "\u"; false on a short or non-hex sequence.
  bool ParseHex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return false;
    const std::optional<uint64_t> value =
        support::ParseHex(text_.substr(pos_, 4));
    if (!value) return false;
    pos_ += 4;
    out = static_cast<uint32_t>(*value);
    return true;
  }

  static void AppendUtf8(std::string& out, uint32_t code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | code >> 6));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | code >> 12));
      out.push_back(static_cast<char>(0x80 | (code >> 6 & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | code >> 18));
      out.push_back(static_cast<char>(0x80 | (code >> 12 & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code >> 6 & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  // A "\uXXXX" escape with pos_ just past the 'u': decodes one code point
  // (pairing surrogates, rejecting lone ones) and appends it as UTF-8.
  bool ParseUnicodeEscape(std::string& out) {
    uint32_t code;
    if (!ParseHex4(code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return false;  // lone low surrogate
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: the paired "\uXXXX" low surrogate must follow
      // immediately, per RFC 8259 — anything else is a lone surrogate.
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return false;
      }
      pos_ += 2;
      uint32_t low;
      if (!ParseHex4(low)) return false;
      if (low < 0xDC00 || low > 0xDFFF) return false;
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    AppendUtf8(out, code);
    return true;
  }

  std::optional<Json> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (!ParseUnicodeEscape(out)) return std::nullopt;
          break;
        default: return std::nullopt;
      }
    }
    if (pos_ >= text_.size()) return std::nullopt;  // unterminated
    ++pos_;                                         // closing quote
    return Json(std::move(out));
  }

  std::optional<Json> ParseNumber() {
    const size_t start = pos_;
    bool integral = true;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
        integral = false;
      }
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    if (integral) {
      // Integer literals take the exact int64 path: doubles silently lose
      // precision above 2^53, which uint64 telemetry counters can exceed.
      // Out-of-int64-range literals fall through to the double path.
      errno = 0;
      const long long value = std::strtoll(token.c_str(), &end, 10);
      if (end == token.c_str() + token.size() && errno != ERANGE) {
        return Json(static_cast<int64_t>(value));
      }
    }
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return std::nullopt;
    return Json(value);
  }

  std::optional<Json> ParseArray() {
    ++pos_;  // '['
    std::vector<Json> items;
    if (Consume(']')) return Json::Array(std::move(items));
    for (;;) {
      std::optional<Json> item = ParseValue();
      if (!item) return std::nullopt;
      items.push_back(std::move(*item));
      if (Consume(']')) return Json::Array(std::move(items));
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::optional<Json> ParseObject() {
    ++pos_;  // '{'
    std::map<std::string, Json> members;
    if (Consume('}')) return Json::Object(std::move(members));
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
      std::optional<Json> key = ParseString();
      if (!key) return std::nullopt;
      if (!Consume(':')) return std::nullopt;
      std::optional<Json> value = ParseValue();
      if (!value) return std::nullopt;
      members.emplace(key->AsString(), std::move(*value));
      if (Consume('}')) return Json::Object(std::move(members));
      if (!Consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Json> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

void AppendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void AppendJsonDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

namespace {

void DumpValue(const Json& value, std::string& out) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      out += "null";
      break;
    case Json::Kind::kBool:
      out += value.AsBool() ? "true" : "false";
      break;
    case Json::Kind::kNumber:
      if (value.is_integer()) {
        out += std::to_string(value.AsInt());
      } else {
        AppendJsonDouble(out, value.AsNumber());
      }
      break;
    case Json::Kind::kString:
      AppendJsonString(out, value.AsString());
      break;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : value.AsArray()) {
        if (!first) out += ',';
        first = false;
        DumpValue(item, out);
      }
      out += ']';
      break;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.AsObject()) {
        if (!first) out += ',';
        first = false;
        AppendJsonString(out, key);
        out += ':';
        DumpValue(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Dump(const Json& value) {
  std::string out;
  DumpValue(value, out);
  return out;
}

}  // namespace aqed::telemetry
