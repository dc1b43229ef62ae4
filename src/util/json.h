// A small strict JSON parser for tooling (bench artifact comparison,
// metrics-snapshot inspection in tests), and the one JSON string escaper
// every writer shares.
//
// The repo's hot paths *emit* JSON with hand-rolled writers (obs/, serve/,
// bench/) and never parse it; parsing only happens in offline tools, so
// this parser optimizes for being obviously correct, not fast. It accepts
// exactly the JSON our writers produce (RFC 8259 minus \uXXXX surrogate
// pairs, which are copied through verbatim) and rejects everything else
// with a position-annotated Status.

#ifndef FUME_UTIL_JSON_H_
#define FUME_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace fume {
namespace util {

/// \brief One parsed JSON value. A plain tagged struct — inspect `kind`
/// (or the is_*() helpers) and read the matching member.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  /// Members in source order (duplicate keys are kept; Find returns the
  /// first).
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First member with `key`, or nullptr (also when not an object).
  const JsonValue* Find(const std::string& key) const;

  /// Convenience typed lookups: the member's value when present and of
  /// the right kind, otherwise the fallback.
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
};

/// Parses `text` as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
Result<JsonValue> ParseJson(const std::string& text);

/// Reads and parses a JSON file.
Result<JsonValue> ParseJsonFile(const std::string& path);

/// Appends `s` as a quoted JSON string: `"`, `\`, newline, carriage
/// return and tab get their short escapes, other control bytes \u00XX,
/// and every other byte (UTF-8 included) is copied through. Inline so that
/// obs, which this library links, writes JSON through the same escaper.
inline void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[static_cast<unsigned char>(c) >> 4]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace util
}  // namespace fume

#endif  // FUME_UTIL_JSON_H_
