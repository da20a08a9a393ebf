// The JSON codec: a strict reader plus an insertion-ordered object writer.
// Every JSON byte the library reads or writes goes through this file: the
// serve wire protocol, run-journal and lease-ledger lines, the obs metrics
// and trace exports, and the bench emitters.
//
// Reader. Strict: complete values only, no trailing bytes, nesting depth
// at most 16, numbers per the JSON grammar and finite. It never throws on
// malformed input — Json::parse() returns false with a byte-offset error
// message, so untrusted client lines and torn file lines are rejected
// gracefully. \uXXXX escapes decode to UTF-8 (surrogates are rejected);
// raw bytes >= 0x80 pass through unvalidated.
//
// Writer. json_escape() writes '"', '\\', \n, \r and \t as two-character
// escapes and every other byte below 0x20 as \u00XX; all other bytes are
// copied. json_number() writes "%.17g" (bit-exact strtod round trip) and
// `null` for NaN/Inf, which JSON cannot express. Together: any byte string
// survives writer → reader unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bd {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
  }
  /// The number as an int64_t; nullopt for non-numbers and for numbers
  /// that are not integral or lie outside the int64_t range.
  std::optional<std::int64_t> as_int() const;
  /// Empty for non-strings.
  const std::string& as_string() const { return string_; }
  const std::map<std::string, Json>& members() const { return object_; }
  const std::vector<Json>& items() const { return array_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(const std::string& name) const;

  /// Convenience accessors over object members, with fallbacks for absent
  /// members. A present member of the wrong type is NOT silently coerced
  /// (nor is a non-integral number read as an int): callers that must
  /// distinguish use find() and check the type.
  std::string get_string(const std::string& name,
                         const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Parses exactly one JSON value spanning all of `text` (surrounding
  /// whitespace allowed). On failure returns false and sets `error` to a
  /// reason with the byte offset. Nesting is limited to depth 16.
  static bool parse(std::string_view text, Json& out, std::string& error);

 private:
  friend class JsonParser;
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::map<std::string, Json> object_;
  std::vector<Json> array_;
};

/// `s` escaped for embedding inside a JSON string literal (no quotes).
std::string json_escape(std::string_view s);

/// Text that round-trips `v` bit-exactly through strtod ("%.17g";
/// NaN/Inf print as "nan"/"inf"). Used for numbers stored as
/// string values, e.g. journal fields.
std::string exact_double(double v);

/// `v` as a JSON number literal: exact_double(v), or `null` when `v` is
/// not finite.
std::string json_number(double v);

/// Builds one JSON object string field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);
  JsonObject& set_int(const std::string& key, std::int64_t value);
  JsonObject& set_double(const std::string& key, double value);
  JsonObject& set_bool(const std::string& key, bool value);
  /// Inserts `json` verbatim (a pre-serialized object/array/value).
  JsonObject& set_raw(const std::string& key, const std::string& json);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw_value(const std::string& key, const std::string& value);
  std::string body_;
};

}  // namespace bd
