#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/assert.hpp"

namespace dynvote {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  out.push_back('"');
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  append_escaped(out, text);
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  DV_REQUIRE(stack_.empty() || stack_.back() == Frame::kArray,
             "object members need a key() first");
  if (needs_comma_) out_.push_back(',');
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  DV_REQUIRE(!stack_.empty() && stack_.back() == Frame::kObject && !after_key_,
             "end_object outside an object");
  out_.push_back('}');
  stack_.pop_back();
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  needs_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  DV_REQUIRE(!stack_.empty() && stack_.back() == Frame::kArray && !after_key_,
             "end_array outside an array");
  out_.push_back(']');
  stack_.pop_back();
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  DV_REQUIRE(!stack_.empty() && stack_.back() == Frame::kObject && !after_key_,
             "key() is only valid directly inside an object");
  if (needs_comma_) out_.push_back(',');
  append_escaped(out_, name);
  out_.push_back(':');
  after_key_ = true;
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  append_escaped(out_, text);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* text) {
  return value(std::string_view(text));
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) return null();
  separate();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", number);
  out_ += buf;
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  separate();
  out_ += std::to_string(number);
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  needs_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  needs_comma_ = true;
  return *this;
}

const std::string& JsonWriter::str() const {
  DV_REQUIRE(stack_.empty() && !after_key_,
             "JSON document has unbalanced nesting");
  return out_;
}

// ---------------------------------------------------------------------------
// JsonValue and its parser, a strict recursive-descent pass over one
// RFC-8259 document.

bool JsonValue::as_bool() const {
  DV_REQUIRE(kind_ == Kind::kBool, "JsonValue is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  DV_REQUIRE(kind_ == Kind::kNumber, "JsonValue is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  DV_REQUIRE(kind_ == Kind::kString, "JsonValue is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  DV_REQUIRE(kind_ == Kind::kArray, "JsonValue is not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  DV_REQUIRE(kind_ == Kind::kObject, "JsonValue is not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::string_view JsonValue::string_or(std::string_view key,
                                      std::string_view fallback) const {
  const JsonValue* found = find(key);
  return found != nullptr && found->is_string() ? found->as_string()
                                                : fallback;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* found = find(key);
  return found != nullptr && found->is_number() ? found->as_number()
                                                : fallback;
}

namespace {

void append_utf8(std::string& out, std::uint32_t code_point) {
  if (code_point < 0x80) {
    out.push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

}  // namespace

namespace detail {

struct JsonDomParser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 256;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool hex4(std::uint32_t& value) {
    value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos >= text.size()) return false;
      const char c = text[pos++];
      std::uint32_t digit = 0;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return false;
      }
      value = (value << 4) | digit;
    }
    return true;
  }

  bool string(std::string& out) {
    out.clear();
    if (!eat('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= text.size()) return false;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t unit = 0;
          if (!hex4(unit)) return false;
          // Combine a high+low surrogate pair when one follows; a lone
          // surrogate is kept as-is rather than rejected.
          if (unit >= 0xD800 && unit <= 0xDBFF &&
              text.substr(pos, 2) == "\\u") {
            const std::size_t saved = pos;
            pos += 2;
            std::uint32_t low = 0;
            if (hex4(low) && low >= 0xDC00 && low <= 0xDFFF) {
              unit = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos = saved;
            }
          }
          append_utf8(out, unit);
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool digits() {
    const std::size_t start = pos;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos > start;
  }

  bool number(double& out) {
    const std::size_t start = pos;
    eat('-');
    if (eat('0')) {
      if (pos < text.size() &&
          std::isdigit(static_cast<unsigned char>(text[pos]))) {
        return false;
      }
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) return false;
    }
    // The slice [start, pos) passed the grammar; strtod needs a
    // NUL-terminated buffer, so copy it out (numbers are short).
    const std::string slice(text.substr(start, pos - start));
    out = std::strtod(slice.c_str(), nullptr);
    return true;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    bool ok = false;
    if (pos >= text.size()) {
      ok = false;
    } else if (text[pos] == '{') {
      ++pos;
      out.kind_ = JsonValue::Kind::kObject;
      skip_ws();
      if (eat('}')) {
        ok = true;
      } else {
        for (;;) {
          skip_ws();
          JsonValue::Member member;
          if (!string(member.first)) { ok = false; break; }
          skip_ws();
          if (!eat(':')) { ok = false; break; }
          if (!value(member.second)) { ok = false; break; }
          out.members_.push_back(std::move(member));
          skip_ws();
          if (eat(',')) continue;
          ok = eat('}');
          break;
        }
      }
    } else if (text[pos] == '[') {
      ++pos;
      out.kind_ = JsonValue::Kind::kArray;
      skip_ws();
      if (eat(']')) {
        ok = true;
      } else {
        for (;;) {
          JsonValue item;
          if (!value(item)) { ok = false; break; }
          out.items_.push_back(std::move(item));
          skip_ws();
          if (eat(',')) continue;
          ok = eat(']');
          break;
        }
      }
    } else if (text[pos] == '"') {
      out.kind_ = JsonValue::Kind::kString;
      ok = string(out.string_);
    } else if (text[pos] == 't') {
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = true;
      ok = literal("true");
    } else if (text[pos] == 'f') {
      out.kind_ = JsonValue::Kind::kBool;
      out.bool_ = false;
      ok = literal("false");
    } else if (text[pos] == 'n') {
      out.kind_ = JsonValue::Kind::kNull;
      ok = literal("null");
    } else {
      out.kind_ = JsonValue::Kind::kNumber;
      ok = number(out.number_);
    }
    --depth;
    return ok;
  }
};

}  // namespace detail

std::optional<JsonValue> json_parse(std::string_view document) {
  detail::JsonDomParser parser{document};
  JsonValue root;
  if (!parser.value(root)) return std::nullopt;
  parser.skip_ws();
  if (parser.pos != document.size()) return std::nullopt;
  return root;
}

}  // namespace dynvote
