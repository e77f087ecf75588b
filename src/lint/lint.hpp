// dvlint: a repo-aware static checker for the dynvote codebase.
//
// The sharded-sweep design rests on an invariant nothing in the compiler
// enforces: simulation results must be *bit-deterministic* (no unseeded
// randomness, no wall-clock input, no hash-order iteration feeding stats or
// fingerprints).  dvlint checks it statically -- plus the include-layering
// DAG and the hygiene of decoders of external bytes -- with a lightweight
// lexer over the repo's own sources; no libclang, no build required.  What
// the compiler can enforce, it does instead: lock discipline through
// Guarded<T> (util/guarded.hpp), whose state is reachable only under its
// lock; exhaustive enum switches through -Werror=switch-enum (with
// -Werror=switch for switches that have no default label); RNG stream
// discipline through StreamTag (util/rng.hpp), an enum that child_seed and
// Rng require where a tag belongs and whose one registry switch fails to
// compile on a duplicate or missing tag; and trace purity through the
// DV_TRACE_* macros (obs/trace.hpp), which evaluate their arguments once
// whether or not tracing is armed.
//
// Defect classes (check ids):
//   determinism            unseeded randomness (rand, srand, drand48,
//                          random_device), wall-clock reads (time(),
//                          system_clock, gettimeofday, localtime),
//                          pointer-keyed ordered containers, or any
//                          unordered_map/unordered_set/unordered_multimap/
//                          unordered_multiset in result-affecting
//                          directories (core, gcs, sim, runner, fabric).
//   layering               an include that climbs the DAG (util < obs <
//                          core < gcs < sim < runner < fabric < lint);
//                          e.g. core including sim, sim including runner,
//                          obs including core, or anything in src
//                          including bench.  The observability layer sits
//                          just above util so core/gcs/sim may emit trace
//                          events, never the reverse.
//   decode-throw           a decode or decode_body body uses
//                          DV_ASSERT/DV_REQUIRE instead of throwing
//                          DecodeError: malformed bytes are input errors,
//                          never assertions.
//   bounded-decode         a decode path reserve()s/resize()s from a
//                          decoded count without first bounding it by the
//                          decoder's remaining bytes; a hostile length
//                          prefix must fail fast, not allocate.
//
// Any finding can be silenced with `// dvlint: ignore(<check-id>)` on
// (or immediately above) the offending line; the tree itself is the only
// record of an opt-out.  Output is deterministic: findings sort by (file,
// line, check, detail) so CI diffs are stable.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace dynvote::lint {

enum class CheckId {
  kDeterminism,
  kLayering,
  kDecodeThrow,
  kBoundedDecode,
};

/// Stable kebab-case name used in output and annotations.
std::string_view to_string(CheckId check);

/// Catalogue entry for one check, for --list-checks and SARIF rules.
struct CheckInfo {
  CheckId id = CheckId::kDeterminism;
  std::string_view name;
  std::string_view summary;
};

/// Every check, in CheckId order.
std::span<const CheckInfo> all_checks();

struct Finding {
  CheckId check = CheckId::kDeterminism;
  /// Path relative to the scanned root, forward slashes.
  std::string file;
  std::size_t line = 0;
  /// The specific entity at fault (field name, include path, token).
  std::string detail;
  std::string message;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.check != b.check) return a.check < b.check;
    return a.detail < b.detail;
  }
  friend bool operator==(const Finding& a, const Finding& b) = default;
};

struct LintReport {
  std::vector<Finding> findings;  // sorted, unique
  std::size_t files_scanned = 0;
};

/// Run every check over the C++ sources (.hpp, .cpp, .h, .cc) under
/// `root`, recursively.
/// Throws std::runtime_error when the root does not exist or a source file
/// cannot be read.
LintReport run_lint(const std::string& root);

/// Human-readable rendering, one line per finding plus a summary line.
std::string render_text(const LintReport& report);

/// SARIF 2.1.0 rendering (one run, every check as a reporting rule), for
/// code-scanning upload and editor integrations.
std::string render_sarif(const LintReport& report, const std::string& root);

}  // namespace dynvote::lint
