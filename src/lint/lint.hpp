// dvlint: a repo-aware static checker for the dynvote codebase.
//
// The sharded-sweep design rests on two invariants nothing in the compiler
// enforces: snapshots must be *complete* (every mutable field of every
// save/load class round-trips) and simulation results must be
// *bit-deterministic* (no unseeded randomness, no wall-clock input, no
// hash-order iteration feeding stats or fingerprints).  dvlint checks both
// statically -- plus the include-layering DAG -- with a lightweight lexer
// over the repo's own sources; no libclang, no build required.  What the
// compiler can enforce, it does instead: lock discipline through
// Guarded<T> (util/guarded.hpp), whose state is reachable only under its
// lock, and exhaustive enum switches through -Werror=switch-enum (with
// -Werror=switch for switches that have no default label).
//
// Defect classes (check ids):
//   snapshot-completeness  a class with save/load (or encode/decode,
//                          save_extra/load_extra, encode_body/decode_body)
//                          has a declared member field that the save-side
//                          or load-side bodies never reference.  Opt-out:
//                          annotate the field `// dvlint: transient(why)`.
//   determinism            unseeded randomness (rand, srand, drand48,
//                          random_device), wall-clock reads (time(),
//                          system_clock, gettimeofday, localtime),
//                          pointer-keyed ordered containers, or range-for
//                          iteration over an unordered_map/unordered_set in
//                          result-affecting directories (core, gcs, sim,
//                          runner, fabric).  Opt-out: `// dvlint:
//                          unordered-ok` for provably order-insensitive
//                          folds.
//   layering               an include that climbs the DAG (util < obs <
//                          core < gcs < sim < runner < fabric < lint);
//                          e.g. core including sim, sim including runner,
//                          obs including core, or anything in src
//                          including bench.  The observability layer sits
//                          just above util so core/gcs/sim may emit trace
//                          events, never the reverse.
//   decode-throw           a load-side body (load, load_extra, decode,
//                          decode_body) uses DV_ASSERT/DV_REQUIRE instead
//                          of throwing DecodeError: malformed snapshot
//                          bytes are input errors, never assertions.
//   rng-stream-discipline  a `child_seed(seed, tag)` call whose tag is not
//                          a named `k*StreamTag` registry constant, two
//                          registry tags sharing a value, or an Rng seeded
//                          from a raw expression in a result-affecting
//                          path.  Opt-out for pinned raw seeds (the
//                          geometric schedule baselines): `// dvlint:
//                          raw-seed(why)`.
//   bounded-decode         a decode path reserve()s/resize()s from a
//                          decoded count without first bounding it by the
//                          decoder's remaining bytes; a hostile length
//                          prefix must fail fast, not allocate.
//   trace-purity           an argument of a DV_TRACE_* emission macro in a
//                          result-affecting directory draws randomness
//                          (rng, child_seed, ...) or mutates state
//                          (assignment, ++/--, push_back/erase/...).
//                          Observation must be a pure read: an emission
//                          site that perturbs the RNG stream or the world
//                          changes results when tracing toggles, breaking
//                          the fingerprint-parity guarantee.  Opt-out:
//                          `// dvlint: ignore(trace-purity)`.
//
// Any finding can also be silenced with `// dvlint: ignore(<check-id>)` on
// (or immediately above) the offending line; the tree itself is the only
// record of an opt-out.  Output is deterministic: findings sort by (file,
// line, check, detail) so CI diffs are stable.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace dynvote::lint {

enum class CheckId {
  kSnapshotCompleteness,
  kDeterminism,
  kLayering,
  kDecodeThrow,
  kRngStream,
  kBoundedDecode,
  kTracePurity,
};

/// Stable kebab-case name used in output and annotations.
std::string_view to_string(CheckId check);

/// Catalogue entry for one check, for --list-checks and SARIF rules.
struct CheckInfo {
  CheckId id = CheckId::kSnapshotCompleteness;
  std::string_view name;
  std::string_view summary;
};

/// Every check, in CheckId order.
std::span<const CheckInfo> all_checks();

struct Finding {
  CheckId check = CheckId::kSnapshotCompleteness;
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
