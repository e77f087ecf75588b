#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace dynvote {

namespace {

void warn_malformed(const char* name, const std::string& raw,
                    const std::string& fallback_text) {
  DV_LOG_WARN("ignoring malformed " << name << "=\"" << raw
                                    << "\"; using " << fallback_text);
}

void warn_out_of_range(const char* name, const std::string& raw,
                       const std::string& fallback_text) {
  DV_LOG_WARN("ignoring out-of-range " << name << "=\"" << raw
                                       << "\"; using " << fallback_text);
}

/// Why a strict parse rejected its text: a syntax error, or a number the
/// target type cannot hold (the env knobs warn differently for each).
enum class Parse { kOk, kMalformed, kOutOfRange };

Parse strict_u64(const std::string& text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return Parse::kMalformed;
  // A negative number parses (strtoull wraps it) and an over-wide one
  // saturates with ERANGE; both are values an unsigned cannot hold, not
  // syntax errors.  strtoull skips leading whitespace before the sign, so
  // scan past it the same way before looking for '-'.
  const char* first = text.c_str();
  while (std::isspace(static_cast<unsigned char>(*first)) != 0) ++first;
  if (*first == '-' || errno == ERANGE) return Parse::kOutOfRange;
  out = static_cast<std::uint64_t>(value);
  return Parse::kOk;
}

Parse strict_double(const std::string& text, double& out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return Parse::kMalformed;
  // Overflow to +/-inf (and an inf or nan literal) is out-of-range;
  // gradual underflow toward zero is a representable (if imprecise) value.
  if (!std::isfinite(value)) return Parse::kOutOfRange;
  out = value;
  return Parse::kOk;
}

void warn_rejected(Parse status, const char* name, const std::string& raw,
                   const std::string& fallback_text) {
  if (status == Parse::kMalformed) {
    warn_malformed(name, raw, fallback_text);
  } else {
    warn_out_of_range(name, raw, fallback_text);
  }
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

std::optional<std::string> env_string(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  if (strict_u64(text, value) != Parse::kOk) return std::nullopt;
  return value;
}

std::optional<double> parse_double(const std::string& text) {
  double value = 0.0;
  if (strict_double(text, value) != Parse::kOk) return std::nullopt;
  return value;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const auto raw = env_string(name);
  if (!raw.has_value()) return fallback;
  std::uint64_t value = 0;
  const Parse status = strict_u64(*raw, value);
  if (status == Parse::kOk) return value;
  warn_rejected(status, name, *raw, std::to_string(fallback));
  return fallback;
}

double env_double(const char* name, double fallback) {
  const auto raw = env_string(name);
  if (!raw.has_value()) return fallback;
  double value = 0.0;
  const Parse status = strict_double(*raw, value);
  if (status == Parse::kOk) return value;
  warn_rejected(status, name, *raw, std::to_string(fallback));
  return fallback;
}

bool env_flag(const char* name, bool fallback) {
  const auto raw = env_string(name);
  if (!raw.has_value()) return fallback;
  const std::string v = lower(*raw);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  warn_malformed(name, *raw, fallback ? "true" : "false");
  return fallback;
}

bool env_bool(const char* name, bool fallback) {
  const auto raw = env_string(name);
  if (!raw.has_value()) return fallback;
  const std::string v = lower(*raw);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  // Distinguish a number a boolean cannot hold (DV_TRACE=2, DV_TRACE=-1,
  // an over-wide digit string) from outright garbage: the former is a
  // parseable value out of the variable's range, mirroring env_u64.
  char* end = nullptr;
  errno = 0;
  (void)std::strtoll(raw->c_str(), &end, 10);
  if (end != raw->c_str() && *end == '\0') {
    warn_out_of_range(name, *raw, fallback ? "true" : "false");
    return fallback;
  }
  warn_malformed(name, *raw, fallback ? "true" : "false");
  return fallback;
}

}  // namespace dynvote
