// Dependency-free JSON emission and parsing for the sweep runner's
// artifacts.
//
// The writer is a streaming, comma-managing serializer: callers nest
// begin_object/begin_array and key/value calls and get syntactically valid
// RFC-8259 output (the test suite and the CI smoke sweep both re-parse
// what it emits).  Doubles print round-trippably via %.17g with NaN and
// infinities -- which JSON cannot represent -- emitted as null.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dynvote {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member name; must be followed by a value or container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// The document so far.  Call once nesting is balanced.
  const std::string& str() const;

 private:
  void separate();

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
};

/// Escape `text` as a JSON string literal, including the quotes.
std::string json_quote(std::string_view text);

namespace detail {
struct JsonDomParser;
}  // namespace detail

/// A parsed JSON document -- the read side of the artifact pipeline.
/// Numbers are held as double (every manifest number fits; fingerprints
/// travel as strings precisely so this lossiness cannot bite).  Object
/// member order is preserved; lookup is linear, which is fine at manifest
/// scale.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; DV_REQUIRE on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<Member>& members() const;

  /// Object member by key, nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// `find(key)->as_string()`, or `fallback` when absent/not a string.
  std::string_view string_or(std::string_view key,
                             std::string_view fallback) const;
  /// `find(key)->as_number()`, or `fallback` when absent/not a number.
  double number_or(std::string_view key, double fallback) const;

 private:
  friend struct detail::JsonDomParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

/// Parse one complete document under the strict RFC-8259 grammar;
/// std::nullopt on malformed input or trailing garbage.
std::optional<JsonValue> json_parse(std::string_view document);

}  // namespace dynvote
