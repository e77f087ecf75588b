// Environment-variable configuration shared by the library, the sweep
// runner, the benches and the examples.
//
// Every DV_* knob funnels through these helpers so that parsing is uniform
// and a malformed value produces a warning (naming the variable and the
// fallback used) instead of being silently ignored -- a mistyped
// DV_RUNS=4OO must not quietly shrink a 1000-run figure to its default.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace dynvote {

/// Strict unsigned parse: the whole of `text` must be a decimal integer
/// (leading whitespace and a '+' are accepted, as strtoull does) that fits
/// in 64 bits.  Trailing characters ("1e3", "12x4"), a '-' sign (which
/// strtoull would silently wrap) and overflow give nullopt.  The DV_* knobs
/// and the command-line tools' numeric flags all parse through this.
std::optional<std::uint64_t> parse_u64(const std::string& text);

/// Strict floating-point parse: the whole of `text` must be a number that
/// is finite as a double.  Trailing characters, inf/nan and overflow give
/// nullopt; gradual underflow toward zero is a value and passes.
std::optional<double> parse_double(const std::string& text);

/// Raw lookup: the variable's value, or nullopt when unset/empty.
std::optional<std::string> env_string(const char* name);

/// Unsigned integer knob (DV_RUNS, DV_SEED, DV_JOBS...).  Malformed values
/// warn and return `fallback`.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Floating-point knob.  Malformed values warn and return `fallback`.
double env_double(const char* name, double fallback);

/// Boolean knob: "1"/"true"/"yes"/"on" -> true, "0"/"false"/"no"/"off" ->
/// false (case-insensitive).  Malformed values warn and return `fallback`.
bool env_flag(const char* name, bool fallback);

/// Boolean knob with env_u64's out-of-range discipline on top of
/// env_flag's word forms: numeric values other than 0/1 (DV_TRACE=2,
/// DV_TRACE=-1) are values a boolean cannot hold and warn as
/// out-of-range, while non-numeric garbage warns as malformed.  Both
/// return `fallback`.
bool env_bool(const char* name, bool fallback);

}  // namespace dynvote
