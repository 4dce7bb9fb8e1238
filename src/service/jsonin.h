// Minimal recursive-descent JSON reader for the serving layer. The repo's
// util/json.h is emit-only (every producer streams JsonWriter); spinelessd
// is the first component that must *consume* JSON, so this adds the other
// half: a small DOM with deterministic iteration (object members keep
// insertion order in a vector — no hash maps anywhere near request
// handling) and position-annotated parse errors that flow back to the
// client as `error` responses instead of killing the daemon.
//
// Scope: the JSON the daemon speaks — objects, arrays, strings with the
// standard escapes (\uXXXX folded to UTF-8), doubles, bools, null. No
// comments, no trailing commas, no NaN/Infinity (they are not valid JSON
// and JsonWriter never emits them).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spineless::service {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const noexcept { return kind_; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Typed accessors throw spineless::Error on a kind mismatch, so request
  // parsing reads fields without pre-checking every one.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;  // throws when not integral
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  // Object member lookup (first match, linear — daemon objects are tiny).
  // Returns nullptr when absent or when this value is not an object.
  const JsonValue* find(const std::string& key) const;

  // Builders (used by tests and the canonicalizer).
  static JsonValue null();
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue string(std::string s);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> kv);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Parses exactly one JSON value; trailing non-whitespace is an error.
// Throws spineless::Error with a byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace spineless::service
