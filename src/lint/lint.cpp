#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "lint/parse.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"
#include "util/json.hpp"

namespace dynvote::lint {

namespace fs = std::filesystem;

namespace {

constexpr CheckInfo kChecks[] = {
    {CheckId::kSnapshotCompleteness, "snapshot-completeness",
     "every mutable field of a save/load class must round-trip through the "
     "snapshot (opt-out: // dvlint: transient(why))"},
    {CheckId::kDeterminism, "determinism",
     "no unseeded randomness, wall-clock reads, pointer-keyed ordering or "
     "hash-order iteration in result-affecting paths"},
    {CheckId::kLayering, "layering",
     "includes must respect the layer DAG: util < obs < core < gcs < sim "
     "< runner < fabric < lint"},
    {CheckId::kDecodeThrow, "decode-throw",
     "decode paths throw DecodeError on malformed input instead of "
     "asserting"},
    {CheckId::kGuardedBy, "guarded-by",
     "fields annotated guarded_by(<mutex>) may only be touched while a "
     "scope holds that mutex"},
    {CheckId::kProtocolExhaustiveness, "protocol-exhaustiveness",
     "switches over wire_enum-annotated enums handle every enumerator; no "
     "non-throwing default may swallow new frames"},
    {CheckId::kRngStream, "rng-stream-discipline",
     "child_seed() tags come from the k*StreamTag registry, tags are "
     "registry-unique, and raw Rng seeds carry a raw-seed(why) whitelist "
     "annotation"},
    {CheckId::kBoundedDecode, "bounded-decode",
     "decode-side reserve()/resize() from a decoded count is bounded by "
     "the decoder's remaining bytes first"},
    {CheckId::kTracePurity, "trace-purity",
     "DV_TRACE_* emission arguments in result-affecting paths must be pure "
     "reads: no RNG draws, no assignments or mutator calls"},
};

}  // namespace

std::span<const CheckInfo> all_checks() { return kChecks; }

std::string_view to_string(CheckId check) {
  for (const CheckInfo& info : kChecks) {
    if (info.id == check) return info.name;
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// Shared helpers

constexpr std::array<std::string_view, 4> kSaveSideMethods = {
    "save", "save_extra", "encode", "encode_body"};
constexpr std::array<std::string_view, 4> kLoadSideMethods = {
    "load", "load_extra", "decode", "decode_body"};

/// Directory rank in the include DAG; higher may include lower, never the
/// reverse.  Unknown directories have no rank and are exempt.
int layer_rank(std::string_view dir) {
  if (dir == "util") return 0;
  if (dir == "obs") return 1;
  if (dir == "core") return 2;
  if (dir == "gcs") return 3;
  if (dir == "sim") return 4;
  if (dir == "runner") return 5;
  if (dir == "fabric") return 6;
  if (dir == "lint") return 7;
  return -1;
}

/// Directories whose code feeds simulation results, stats folds, or the
/// manifest fingerprint -- where determinism hygiene is enforced.  The
/// fabric qualifies: its merge order and wire round-trips are exactly what
/// the bit-identical-fingerprint guarantee rests on.
bool result_affecting(std::string_view dir) {
  return dir == "core" || dir == "gcs" || dir == "sim" || dir == "runner" ||
         dir == "fabric";
}

std::string_view top_dir(std::string_view rel_path) {
  const std::size_t slash = rel_path.find('/');
  return slash == std::string_view::npos ? std::string_view{}
                                         : rel_path.substr(0, slash);
}

bool ignored(const SourceFile& file, std::size_t line, CheckId check) {
  std::string needle = "ignore(";
  needle += to_string(check);
  needle += ')';
  return file.has_annotation(line, needle);
}

struct BodyRef {
  const SourceFile* file = nullptr;
  MethodBody body;
};

/// All bodies of `cls`'s method `method`, inline or out-of-line, anywhere
/// in the scanned tree.
void collect_bodies(const std::vector<ParsedFile>& files,
                    const std::string& cls, std::string_view method,
                    std::vector<BodyRef>& out) {
  const std::pair<std::string, std::string> key{cls, std::string(method)};
  for (const ParsedFile& pf : files) {
    for (const auto* table : {&pf.inline_bodies, &pf.out_of_line}) {
      const auto it = table->find(key);
      if (it == table->end()) continue;
      for (const MethodBody& b : it->second) {
        out.push_back(BodyRef{pf.source, b});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 1: snapshot completeness

void check_snapshot_completeness(const std::vector<ParsedFile>& files,
                                 std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    for (const ClassDecl& cls : pf.classes) {
      if (cls.fields.empty()) continue;

      struct Side {
        std::string_view label;
        std::span<const std::string_view> methods;
        std::vector<BodyRef> bodies;
        std::set<std::string_view> idents;
      };
      Side sides[2] = {
          {"save path (save/encode)", kSaveSideMethods, {}, {}},
          {"load path (load/decode)", kLoadSideMethods, {}, {}},
      };
      for (Side& side : sides) {
        for (std::string_view m : side.methods) {
          collect_bodies(files, cls.name, m, side.bodies);
        }
        for (const BodyRef& ref : side.bodies) {
          const std::string_view body =
              std::string_view(ref.file->code)
                  .substr(ref.body.begin, ref.body.end - ref.body.begin);
          for (const Token& t : tokenize(body)) {
            if (t.is_ident()) side.idents.insert(t.text);
          }
        }
      }
      if (sides[0].bodies.empty() && sides[1].bodies.empty()) continue;

      for (const FieldDecl& field : cls.fields) {
        if (pf.source->has_annotation(field.line, "transient")) continue;
        if (ignored(*pf.source, field.line, CheckId::kSnapshotCompleteness)) {
          continue;
        }
        for (const Side& side : sides) {
          if (side.bodies.empty()) continue;
          if (side.idents.count(field.name) > 0) continue;
          Finding f;
          f.check = CheckId::kSnapshotCompleteness;
          f.file = pf.source->rel_path;
          f.line = field.line;
          f.detail = field.name;
          f.message = "class " + cls.name + ": field '" + field.name +
                      "' is never referenced by the " + std::string(side.label) +
                      "; serialize it or annotate it '// dvlint: "
                      "transient(reason)'";
          findings.push_back(std::move(f));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4 (rides on the same machinery): decode paths must throw DecodeError

void check_decode_throw(const std::vector<ParsedFile>& files,
                        std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    for (const ClassDecl& cls : pf.classes) {
      std::vector<BodyRef> bodies;
      for (std::string_view m : kLoadSideMethods) {
        collect_bodies(files, cls.name, m, bodies);
      }
      for (const BodyRef& ref : bodies) {
        const std::string_view body =
            std::string_view(ref.file->code)
                .substr(ref.body.begin, ref.body.end - ref.body.begin);
        for (const Token& t : tokenize(body)) {
          if (t.text != "DV_ASSERT" && t.text != "DV_REQUIRE") continue;
          const std::size_t line = ref.file->line_of(ref.body.begin + t.offset);
          if (ignored(*ref.file, line, CheckId::kDecodeThrow)) continue;
          Finding f;
          f.check = CheckId::kDecodeThrow;
          f.file = ref.file->rel_path;
          f.line = line;
          f.detail = std::string(t.text);
          f.message = "class " + cls.name + ": snapshot decode path uses " +
                      std::string(t.text) +
                      "; malformed bytes are input errors -- throw "
                      "DecodeError instead";
          findings.push_back(std::move(f));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: determinism hygiene

constexpr std::array<std::string_view, 9> kRandomnessTokens = {
    "rand",         "srand",
    "drand48",      "random_device",
    "mt19937",      "mt19937_64",
    "minstd_rand",  "default_random_engine",
    "random_shuffle"};

constexpr std::array<std::string_view, 4> kWallClockTokens = {
    "system_clock", "gettimeofday", "localtime", "strftime"};

constexpr std::array<std::string_view, 6> kOrderedByKey = {
    "map", "set", "multimap", "multiset", "unordered_map", "unordered_set"};

void check_determinism(const std::vector<ParsedFile>& files,
                       std::vector<Finding>& findings) {
  // Unordered container names are collected repo-wide: a member declared in
  // a header is iterated from the implementation file.
  std::set<std::string> unordered;
  for (const ParsedFile& pf : files) {
    unordered.insert(pf.unordered_names.begin(), pf.unordered_names.end());
    for (const ClassDecl& cls : pf.classes) {
      for (const FieldDecl& field : cls.fields) {
        if (field.unordered) unordered.insert(field.name);
      }
    }
  }

  for (const ParsedFile& pf : files) {
    if (!result_affecting(top_dir(pf.source->rel_path))) continue;
    const SourceFile& src = *pf.source;
    const std::vector<Token> tokens = tokenize(src.code);

    auto flag = [&](std::size_t offset, std::string detail,
                    std::string message) {
      const std::size_t line = src.line_of(offset);
      if (ignored(src, line, CheckId::kDeterminism)) return;
      Finding f;
      f.check = CheckId::kDeterminism;
      f.file = src.rel_path;
      f.line = line;
      f.detail = std::move(detail);
      f.message = std::move(message);
      findings.push_back(std::move(f));
    };

    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const std::string_view t = tokens[i].text;
      const bool called =
          i + 1 < tokens.size() && tokens[i + 1].text == "(";
      // `x.time(...)` / `x->clock(...)` are member calls, not libc.
      const bool member_access = i > 0 && (tokens[i - 1].text == "." ||
                                           (tokens[i - 1].text == ">" &&
                                            i > 1 && tokens[i - 2].text == "-"));

      if (std::find(kRandomnessTokens.begin(), kRandomnessTokens.end(), t) !=
              kRandomnessTokens.end() &&
          !member_access) {
        flag(tokens[i].offset, std::string(t),
             "unseeded/non-portable randomness '" + std::string(t) +
                 "' in a result-affecting path; draw from util/rng.hpp "
                 "(seeded, cross-platform) instead");
        continue;
      }
      if (std::find(kWallClockTokens.begin(), kWallClockTokens.end(), t) !=
              kWallClockTokens.end() ||
          ((t == "time" || t == "clock") && called && !member_access)) {
        flag(tokens[i].offset, std::string(t),
             "wall-clock read '" + std::string(t) +
                 "' in a result-affecting path; results must be a pure "
                 "function of the seed");
        continue;
      }
      // Pointer-keyed ordering: std::map/set & friends keyed on a pointer
      // type order by address, which varies run to run.
      if (std::find(kOrderedByKey.begin(), kOrderedByKey.end(), t) !=
              kOrderedByKey.end() &&
          i > 0 && tokens[i - 1].text == "::" && i + 1 < tokens.size() &&
          tokens[i + 1].text == "<") {
        int angle = 0;
        for (std::size_t j = i + 1; j < tokens.size(); ++j) {
          const std::string_view u = tokens[j].text;
          if (u == "<") ++angle;
          if (u == ">" && --angle == 0) break;
          if (u == "," && angle == 1) break;  // end of the key type
          if (u == "*" && angle >= 1) {
            flag(tokens[i].offset, std::string(t),
                 "pointer-keyed std::" + std::string(t) +
                     " orders by address, which varies across runs; key on "
                     "a stable id instead");
            break;
          }
        }
        continue;
      }
    }

    for (const RangeFor& rf : pf.range_fors) {
      if (unordered.count(rf.container) == 0) continue;
      if (src.has_annotation(rf.line, "unordered-ok")) continue;
      if (ignored(src, rf.line, CheckId::kDeterminism)) continue;
      Finding f;
      f.check = CheckId::kDeterminism;
      f.file = src.rel_path;
      f.line = rf.line;
      f.detail = rf.container;
      f.message =
          "iteration over unordered container '" + rf.container +
          "' in a result-affecting path visits elements in hash order; use "
          "an ordered container or sort first (annotate '// dvlint: "
          "unordered-ok' only for provably order-insensitive folds)";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: include layering

void check_layering(const std::vector<ParsedFile>& files,
                    std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    const SourceFile& src = *pf.source;
    const int from_rank = layer_rank(top_dir(src.rel_path));
    for (const IncludeDirective& inc : pf.includes) {
      const std::string_view inc_dir = top_dir(inc.path);
      if (ignored(src, inc.line, CheckId::kLayering)) continue;

      if (inc_dir == "bench" || inc_dir == "tests" || inc_dir == "examples") {
        Finding f;
        f.check = CheckId::kLayering;
        f.file = src.rel_path;
        f.line = inc.line;
        f.detail = inc.path;
        f.message = "library code must not include " + std::string(inc_dir) +
                    "/ (\"" + inc.path + "\")";
        findings.push_back(std::move(f));
        continue;
      }
      const int to_rank = layer_rank(inc_dir);
      if (from_rank < 0 || to_rank < 0) continue;
      if (to_rank <= from_rank) continue;
      Finding f;
      f.check = CheckId::kLayering;
      f.file = src.rel_path;
      f.line = inc.line;
      f.detail = inc.path;
      f.message = "include of \"" + inc.path + "\" climbs the layer DAG (" +
                  std::string(top_dir(src.rel_path)) + " may not depend on " +
                  std::string(inc_dir) +
                  "; order is util < obs < core < gcs < sim < runner "
                  "< fabric < lint)";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Check 5: guarded-by lock discipline
//
// Fields annotated `// dvlint: guarded_by(<mutex>)` (collected repo-wide,
// so a header's annotation protects accesses in every .cpp) may only be
// touched inside a scope holding that mutex.  The heavy lifting -- brace
// scopes, RAII holds, .unlock()/.lock() flow, requires_lock contracts,
// guarded locals -- lives in lint/scope.cpp.

void check_guarded_by(const std::vector<ParsedFile>& files,
                      std::vector<Finding>& findings) {
  // The walker identifies a held mutex by the last identifier of the locked
  // expression (`impl->mutex` -> `mutex`); normalize annotation arguments
  // the same way so `guarded_by(impl->mutex)` matches.
  const auto last_ident = [](std::string_view expr) {
    std::size_t end = expr.size();
    while (end > 0 && !(std::isalnum(static_cast<unsigned char>(
                            expr[end - 1])) ||
                        expr[end - 1] == '_')) {
      --end;
    }
    std::size_t begin = end;
    while (begin > 0 && (std::isalnum(static_cast<unsigned char>(
                             expr[begin - 1])) ||
                         expr[begin - 1] == '_')) {
      --begin;
    }
    return std::string(expr.substr(begin, end - begin));
  };

  std::vector<GuardedField> guarded;
  for (const ParsedFile& pf : files) {
    for (const ClassDecl& cls : pf.classes) {
      for (const FieldDecl& field : cls.fields) {
        const auto arg =
            pf.source->annotation_arg(field.line, "guarded_by");
        if (arg && !arg->empty()) {
          guarded.push_back(
              GuardedField{cls.name, field.name, last_ident(*arg)});
        }
      }
    }
  }
  for (const ParsedFile& pf : files) {
    const SourceFile& src = *pf.source;
    for (const GuardViolation& v : guarded_by_violations(pf, guarded)) {
      const std::size_t line = src.line_of(v.offset);
      if (ignored(src, line, CheckId::kGuardedBy)) continue;
      Finding f;
      f.check = CheckId::kGuardedBy;
      f.file = src.rel_path;
      f.line = line;
      f.detail = v.name;
      f.message =
          "'" + v.name + "' is guarded by '" + v.mutex +
          "' but touched without holding it; take the lock, annotate the "
          "helper '// dvlint: requires_lock(" + v.mutex +
          ")' if the caller holds it, or '// dvlint: ignore(guarded-by)' "
          "where exclusivity is established another way (post-join, "
          "pre-thread)";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Check 6: protocol exhaustiveness
//
// Enums annotated `// dvlint: wire_enum` cross a serialization boundary:
// every switch over one must name every enumerator, so adding a frame type
// fails lint until each handler learns about it.  A `default:` is allowed
// only when it throws -- the decoder's unknown-byte rejection -- because a
// swallowing default is exactly how a new frame type gets silently dropped.

void check_protocol_exhaustiveness(const std::vector<ParsedFile>& files,
                                   std::vector<Finding>& findings) {
  std::map<std::string, const EnumDecl*> wire;
  for (const ParsedFile& pf : files) {
    for (const EnumDecl& e : pf.enums) {
      if (pf.source->has_annotation(e.line, "wire_enum")) {
        wire.emplace(e.name, &e);
      }
    }
  }
  if (wire.empty()) return;

  for (const ParsedFile& pf : files) {
    const SourceFile& src = *pf.source;
    const std::vector<Token> tokens = tokenize(src.code);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].text != "switch" || tokens[i + 1].text != "(") continue;
      int parens = 0;
      std::size_t j = i + 1;
      for (; j < tokens.size(); ++j) {
        if (tokens[j].text == "(") ++parens;
        if (tokens[j].text == ")" && --parens == 0) break;
      }
      if (j + 1 >= tokens.size() || tokens[j + 1].text != "{") continue;
      const std::size_t close = match_brace(src.code, tokens[j + 1].offset);
      if (close == std::string_view::npos) continue;

      const EnumDecl* target = nullptr;
      std::set<std::string_view> covered;
      bool has_default = false;
      bool default_throws = false;
      bool in_default = false;
      int depth = 0;
      for (std::size_t k = j + 1;
           k < tokens.size() && tokens[k].offset <= close; ++k) {
        const std::string_view t = tokens[k].text;
        if (t == "{") ++depth;
        if (t == "}") --depth;
        if (in_default && (t == "throw" || t == "DV_RAISE")) {
          default_throws = true;
        }
        if (depth != 1) continue;
        if (t == "default") {
          has_default = true;
          in_default = true;
          continue;
        }
        if (t != "case") continue;
        in_default = false;
        // Label: idents up to the terminating `:` (`::` is one token, so
        // the label's end is unambiguous).
        std::string_view enumr;
        std::string_view scope_name;
        for (std::size_t m = k + 1; m < tokens.size(); ++m) {
          if (tokens[m].text == ":") break;
          if (tokens[m].text == "::" && !enumr.empty()) scope_name = enumr;
          if (tokens[m].is_ident()) enumr = tokens[m].text;
        }
        if (enumr.empty()) continue;
        covered.insert(enumr);
        if (const auto it = wire.find(std::string(scope_name));
            !scope_name.empty() && it != wire.end()) {
          target = it->second;
        } else if (scope_name.empty()) {
          // Unscoped label: attribute by enumerator membership.
          for (const auto& [name, e] : wire) {
            if (std::find(e->enumerators.begin(), e->enumerators.end(),
                          enumr) != e->enumerators.end()) {
              target = e;
              break;
            }
          }
        }
      }
      if (target == nullptr) continue;

      const std::size_t sw_line = src.line_of(tokens[i].offset);
      if (ignored(src, sw_line, CheckId::kProtocolExhaustiveness)) continue;
      for (const std::string& e : target->enumerators) {
        if (covered.count(e) > 0) continue;
        Finding f;
        f.check = CheckId::kProtocolExhaustiveness;
        f.file = src.rel_path;
        f.line = sw_line;
        f.detail = e;
        f.message = "switch over wire enum '" + target->name +
                    "' does not handle '" + e +
                    "'; every enumerator of a wire enum must be handled "
                    "explicitly so new frame types fail lint until every "
                    "peer understands them";
        findings.push_back(std::move(f));
      }
      if (has_default && !default_throws) {
        Finding f;
        f.check = CheckId::kProtocolExhaustiveness;
        f.file = src.rel_path;
        f.line = sw_line;
        f.detail = "default";
        f.message = "switch over wire enum '" + target->name +
                    "' has a non-throwing default that would silently "
                    "swallow new enumerators; handle each case explicitly "
                    "(a default that throws on unknown input stays legal)";
        findings.push_back(std::move(f));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 7: RNG stream discipline
//
// Replayable, uncorrelated randomness rests on the child_seed registry in
// util/rng.hpp: every derived stream takes a named k*StreamTag constant,
// tags never collide, and nothing seeds an Rng from a raw expression --
// except the pinned geometric schedule, which is whitelisted in place with
// `// dvlint: raw-seed(why)` because its baselines froze before the
// registry existed.

bool is_stream_tag_name(std::string_view t) {
  constexpr std::string_view kSuffix = "StreamTag";
  return t.size() > kSuffix.size() + 1 && t.front() == 'k' &&
         t.substr(t.size() - kSuffix.size()) == kSuffix;
}

/// Top-level comma-separated argument slices of the token group opening at
/// `open` (which must index a `(` or `{`).  Each slice is a [begin, end)
/// token index range.
std::vector<std::pair<std::size_t, std::size_t>> argument_ranges(
    const std::vector<Token>& tokens, std::size_t open) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t k = open; k < tokens.size(); ++k) {
    const std::string_view t = tokens[k].text;
    if (t == "(" || t == "{" || t == "[") ++depth;
    if (t == ")" || t == "}" || t == "]") {
      if (--depth == 0) {
        if (k > begin) out.emplace_back(begin, k);
        return out;
      }
    }
    if (t == "," && depth == 1) {
      if (k > begin) out.emplace_back(begin, k);
      begin = k + 1;
    }
  }
  return out;
}

void check_rng_stream(const std::vector<ParsedFile>& files,
                      std::vector<Finding>& findings) {
  struct TagDef {
    std::string name;
    const SourceFile* src = nullptr;
    std::size_t line = 0;
    std::string value;
  };

  // Registry: every `k*StreamTag = <value>` declaration, in scan order
  // (files are sorted, so duplicates report at the later declaration).
  std::vector<TagDef> defs;
  for (const ParsedFile& pf : files) {
    const std::vector<Token> tokens = tokenize(pf.source->code);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (!tokens[i].is_ident() || !is_stream_tag_name(tokens[i].text) ||
          tokens[i + 1].text != "=") {
        continue;
      }
      TagDef def;
      def.name = std::string(tokens[i].text);
      def.src = pf.source;
      def.line = pf.source->line_of(tokens[i].offset);
      for (std::size_t k = i + 2;
           k < tokens.size() && tokens[k].text != ";"; ++k) {
        def.value += tokens[k].text;
      }
      defs.push_back(std::move(def));
    }
  }

  auto normalized = [](std::string v) -> std::string {
    while (!v.empty() && (v.back() == 'u' || v.back() == 'U' ||
                          v.back() == 'l' || v.back() == 'L')) {
      v.pop_back();
    }
    try {
      std::size_t used = 0;
      const unsigned long long n = std::stoull(v, &used, 0);
      if (used == v.size()) return std::to_string(n);
    } catch (const std::exception&) {
    }
    return v;
  };

  std::set<std::string> tag_names;
  std::map<std::string, std::string> by_value;
  for (const TagDef& def : defs) {
    tag_names.insert(def.name);
    const auto [it, fresh] = by_value.emplace(normalized(def.value), def.name);
    if (fresh) continue;
    if (ignored(*def.src, def.line, CheckId::kRngStream)) continue;
    Finding f;
    f.check = CheckId::kRngStream;
    f.file = def.src->rel_path;
    f.line = def.line;
    f.detail = def.name;
    f.message = "stream tag '" + def.name + "' has the same value as '" +
                it->second +
                "'; colliding tags make two child streams identical -- "
                "pick a fresh value";
    findings.push_back(std::move(f));
  }

  for (const ParsedFile& pf : files) {
    const SourceFile& src = *pf.source;
    const std::vector<Token> tokens = tokenize(src.code);
    const bool affecting = result_affecting(top_dir(src.rel_path));

    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      const std::string_view t = tokens[i].text;

      // --- child_seed call sites ---
      if (t == "child_seed" && tokens[i + 1].text == "(") {
        // Skip the declaration itself (parameter list starts with a type).
        if (i + 2 < tokens.size() && (tokens[i + 2].text == "std" ||
                                      tokens[i + 2].text == ")")) {
          continue;
        }
        const std::size_t line = src.line_of(tokens[i].offset);
        if (ignored(src, line, CheckId::kRngStream)) continue;
        const auto args = argument_ranges(tokens, i + 1);
        std::string problem;
        if (args.size() != 2) {
          problem = "call must be child_seed(<base>, <k*StreamTag>)";
        } else {
          const auto [begin, end] = args[1];
          if (end - begin != 1 || !tokens[begin].is_ident()) {
            problem =
                "the stream tag must be a single named k*StreamTag "
                "constant, not an expression or literal";
          } else if (tag_names.count(std::string(tokens[begin].text)) == 0) {
            problem = "'" + std::string(tokens[begin].text) +
                      "' is not in the k*StreamTag registry; declare it "
                      "there so tag uniqueness is checkable";
          }
        }
        if (problem.empty()) continue;
        Finding f;
        f.check = CheckId::kRngStream;
        f.file = src.rel_path;
        f.line = line;
        f.detail = "child_seed";
        f.message = "child_seed stream discipline: " + problem;
        findings.push_back(std::move(f));
        continue;
      }

      if (!affecting) continue;

      // --- raw Rng seeding ---
      std::size_t open = std::string_view::npos;
      std::string detail;
      if (t == "Rng") {
        if (tokens[i + 1].is_ident() && i + 2 < tokens.size() &&
            (tokens[i + 2].text == "(" || tokens[i + 2].text == "{")) {
          open = i + 2;  // `Rng name(seed)` / `Rng name{seed}`
          detail = std::string(tokens[i + 1].text);
        } else if (tokens[i + 1].text == "(" || tokens[i + 1].text == "{") {
          open = i + 1;  // `Rng(seed)` temporary
          detail = "Rng";
        }
      } else if (tokens[i].is_ident() && tokens[i + 1].text == "(" &&
                 t != "child_seed") {
        // Constructor-initializer style: `rng_(seed)` / `delivery_rng_(x)`.
        std::string lower(t);
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const bool member_access =
            i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "::" ||
                      (tokens[i - 1].text == ">" && i > 1 &&
                       tokens[i - 2].text == "-"));
        if (lower.find("rng") != std::string::npos && !member_access) {
          open = i + 1;
          detail = std::string(t);
        }
      }
      if (open == std::string_view::npos) continue;
      const auto args = argument_ranges(tokens, open);
      if (args.empty()) continue;
      bool derived = false;
      bool param_list = false;
      for (const auto& [begin, end] : args) {
        for (std::size_t k = begin; k < end; ++k) {
          if (tokens[k].text == "child_seed" || tokens[k].text == "fork" ||
              tokens[k].text == "set_state" || tokens[k].text == "state") {
            derived = true;
          }
          // Two adjacent identifiers (`uint64_t seed`) only occur in a
          // parameter list: this is a constructor or function declaration,
          // not a seeding expression.
          if (k + 1 < end && tokens[k].is_ident() &&
              tokens[k + 1].is_ident()) {
            param_list = true;
          }
        }
      }
      if (derived || param_list) continue;
      const std::size_t line = src.line_of(tokens[i].offset);
      if (src.has_annotation(line, "raw-seed")) continue;
      if (ignored(src, line, CheckId::kRngStream)) continue;
      Finding f;
      f.check = CheckId::kRngStream;
      f.file = src.rel_path;
      f.line = line;
      f.detail = detail;
      f.message =
          "Rng '" + detail +
          "' is seeded from a raw expression; derive the seed with "
          "child_seed(<base>, <k*StreamTag>) so streams stay uncorrelated "
          "and replayable, or whitelist a pinned stream with '// dvlint: "
          "raw-seed(why)'";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Check 8: bounded decode
//
// Generalizes the CaseResult::decode_body hardening: a decode path that
// reserve()s or resize()s from a decoded count must first bound the count
// by the decoder's remaining bytes.  A hostile length prefix then fails
// fast in the decoder instead of reaching the allocator.

constexpr std::array<std::string_view, 8> kDecodeGetters = {
    "get_varint", "get_u8",        "get_u16",       "get_u32",
    "get_u64",    "get_u32_fixed", "get_u64_fixed", "get_f64"};

void check_bounded_decode(const std::vector<ParsedFile>& files,
                          std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    if (!result_affecting(top_dir(pf.source->rel_path))) continue;
    const SourceFile& src = *pf.source;
    const std::vector<Token> tokens = tokenize(src.code);

    // Pass 1: decoded-count assignments (`n = dec.get_varint()`) and the
    // offsets where `remaining` is consulted.
    std::map<std::string_view, std::size_t> counts;  // name -> assign offset
    std::vector<std::size_t> remaining_at;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const std::string_view t = tokens[i].text;
      if (t == "remaining") remaining_at.push_back(tokens[i].offset);
      if (std::find(kDecodeGetters.begin(), kDecodeGetters.end(), t) ==
              kDecodeGetters.end() ||
          i + 1 >= tokens.size() || tokens[i + 1].text != "(") {
        continue;
      }
      for (std::size_t k = i; k-- > 0;) {
        const std::string_view u = tokens[k].text;
        if (u == ";" || u == "{" || u == "}") break;
        if (u == "=" && k > 0 && tokens[k - 1].is_ident()) {
          counts[tokens[k - 1].text] = tokens[i].offset;
          break;
        }
      }
    }

    // Pass 2: reserve()/resize() calls fed by a decoded count.
    for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
      const std::string_view t = tokens[i].text;
      if (t != "reserve" && t != "resize") continue;
      const bool member_call =
          tokens[i - 1].text == "." ||
          (tokens[i - 1].text == ">" && i > 1 && tokens[i - 2].text == "-");
      if (!member_call || tokens[i + 1].text != "(") continue;
      const std::size_t call_offset = tokens[i].offset;

      std::string culprit;
      int depth = 0;
      for (std::size_t k = i + 1; k < tokens.size(); ++k) {
        const std::string_view u = tokens[k].text;
        if (u == "(") ++depth;
        if (u == ")" && --depth == 0) break;
        if (std::find(kDecodeGetters.begin(), kDecodeGetters.end(), u) !=
            kDecodeGetters.end()) {
          culprit = std::string(u);  // reserve(dec.get_varint()): never ok
          break;
        }
        if (!tokens[k].is_ident()) continue;
        const auto it = counts.find(u);
        if (it == counts.end() || it->second >= call_offset) continue;
        const bool bounded =
            std::any_of(remaining_at.begin(), remaining_at.end(),
                        [&](std::size_t at) {
                          return at > it->second && at < call_offset;
                        });
        if (!bounded) {
          culprit = std::string(u);
          break;
        }
      }
      if (culprit.empty()) continue;
      const std::size_t line = src.line_of(call_offset);
      if (ignored(src, line, CheckId::kBoundedDecode)) continue;
      Finding f;
      f.check = CheckId::kBoundedDecode;
      f.file = src.rel_path;
      f.line = line;
      f.detail = culprit;
      f.message =
          "decode-side " + std::string(t) + " sized by decoded count '" +
          culprit +
          "' without bounding it against the decoder's remaining bytes; "
          "check `<count> > dec.remaining()` (or an item-size multiple of "
          "it) and throw DecodeError before allocating";
      findings.push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// Check 9: trace-purity
//
// The fingerprint-parity guarantee (DV_TRACE=1 and DV_TRACE=0 produce
// byte-identical results documents) holds only if observation never feeds
// back into simulation.  An emission macro's arguments are evaluated on
// the hot path whether or not that discipline was intended, so any RNG
// draw or mutation inside them changes results -- conditionally, when the
// macro's own guard short-circuits, which is worse.  This check scans the
// argument span of every DV_TRACE_* site in result-affecting directories
// for randomness identifiers, assignment and increment operators, and the
// container/handle mutators a pure read never needs.

constexpr std::array<std::string_view, 2> kEmissionMacros = {
    "DV_TRACE_SPAN", "DV_TRACE_INSTANT"};

constexpr std::array<std::string_view, 8> kTraceRngTokens = {
    "rng",  "rng_",          "child_seed", "rand",
    "srand", "drand48",      "random_device", "mt19937"};

constexpr std::array<std::string_view, 12> kTraceMutatorCalls = {
    "push_back", "pop_back", "emplace", "emplace_back", "insert", "erase",
    "clear",     "resize",   "reset",   "assign",       "swap",   "pop_front"};

void check_trace_purity(const std::vector<ParsedFile>& files,
                        std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    if (!result_affecting(top_dir(pf.source->rel_path))) continue;
    const SourceFile& src = *pf.source;
    const std::vector<Token> tokens = tokenize(src.code);

    auto flag = [&](std::size_t offset, std::string_view macro,
                    std::string detail, const std::string& why) {
      const std::size_t line = src.line_of(offset);
      if (ignored(src, line, CheckId::kTracePurity)) return;
      Finding f;
      f.check = CheckId::kTracePurity;
      f.file = src.rel_path;
      f.line = line;
      f.detail = std::move(detail);
      f.message = std::string(macro) + " argument " + why +
                  "; emission sites must be pure reads or results change "
                  "when tracing toggles (opt-out: // dvlint: "
                  "ignore(trace-purity))";
      findings.push_back(std::move(f));
    };

    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (std::find(kEmissionMacros.begin(), kEmissionMacros.end(),
                    tokens[i].text) == kEmissionMacros.end()) {
        continue;
      }
      if (tokens[i + 1].text != "(") continue;
      const std::string_view macro = tokens[i].text;

      // Token span of the argument list, outer parens excluded.
      std::size_t depth = 0;
      std::size_t close = tokens.size();
      for (std::size_t j = i + 1; j < tokens.size(); ++j) {
        if (tokens[j].text == "(") ++depth;
        if (tokens[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close == tokens.size()) continue;  // unbalanced; fail safe

      for (std::size_t j = i + 2; j < close; ++j) {
        const std::string_view t = tokens[j].text;
        const std::string_view prev = tokens[j - 1].text;
        const std::string_view next =
            j + 1 < close ? tokens[j + 1].text : std::string_view{};

        if (std::find(kTraceRngTokens.begin(), kTraceRngTokens.end(), t) !=
            kTraceRngTokens.end()) {
          flag(tokens[j].offset, macro, std::string(t),
               "draws randomness ('" + std::string(t) +
                   "'): the RNG stream diverges from an untraced run");
          continue;
        }
        if ((t == "+" && next == "+") || (t == "-" && next == "-")) {
          // ++/-- split into adjacent single-char tokens; require true
          // adjacency so `a + +b` stays legal.
          if (tokens[j + 1].offset == tokens[j].offset + 1) {
            flag(tokens[j].offset, macro, std::string(t) + std::string(t),
                 "mutates state ('" + std::string(t) + std::string(t) +
                     "')");
            ++j;
          }
          continue;
        }
        if (t == "=") {
          // Plain or compound assignment, but not ==, !=, <=, >=, or the
          // right half of those (the tokenizer splits them).
          const bool comparison =
              next == "=" || prev == "=" || prev == "!" || prev == "<" ||
              prev == ">";
          const bool compound = prev == "+" || prev == "-" || prev == "*" ||
                                prev == "/" || prev == "%" || prev == "&" ||
                                prev == "|" || prev == "^";
          if (comparison && !compound) continue;
          flag(tokens[j].offset, macro,
               compound ? std::string(prev) + "=" : "=",
               "mutates state (assignment)");
          continue;
        }
        if (next == "(" &&
            std::find(kTraceMutatorCalls.begin(), kTraceMutatorCalls.end(),
                      t) != kTraceMutatorCalls.end()) {
          flag(tokens[j].offset, macro, std::string(t),
               "calls mutator '" + std::string(t) + "()'");
          continue;
        }
      }
    }
  }
}

}  // namespace

LintReport run_lint(const std::string& root_dir) {
  const fs::path root(root_dir);
  if (!fs::is_directory(root)) {
    throw std::runtime_error("dvlint: root is not a directory: " + root_dir);
  }

  std::vector<std::string> rel_paths;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") {
      continue;
    }
    rel_paths.push_back(
        fs::relative(entry.path(), root).generic_string());
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::vector<std::unique_ptr<SourceFile>> sources;
  sources.reserve(rel_paths.size());
  std::vector<ParsedFile> parsed;
  parsed.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    sources.push_back(std::make_unique<SourceFile>(
        load_source((root / rel).string(), rel)));
    parsed.push_back(parse_file(*sources.back()));
  }

  LintReport report;
  report.files_scanned = parsed.size();
  std::vector<Finding>& findings = report.findings;
  check_snapshot_completeness(parsed, findings);
  check_determinism(parsed, findings);
  check_layering(parsed, findings);
  check_decode_throw(parsed, findings);
  check_guarded_by(parsed, findings);
  check_protocol_exhaustiveness(parsed, findings);
  check_rng_stream(parsed, findings);
  check_bounded_decode(parsed, findings);
  check_trace_purity(parsed, findings);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  return report;
}

std::string render_text(const LintReport& report) {
  std::ostringstream os;
  for (const Finding& f : report.findings) {
    os << f.file << ':' << f.line << ": [" << to_string(f.check) << "] "
       << f.message << '\n';
  }
  os << "dvlint: " << report.findings.size() << " finding"
     << (report.findings.size() == 1 ? "" : "s") << ", "
     << report.files_scanned << " files scanned\n";
  return std::move(os).str();
}

std::string render_sarif(const LintReport& report, const std::string& root) {
  const auto rule_index = [](CheckId id) -> std::uint64_t {
    const auto checks = all_checks();
    for (std::size_t i = 0; i < checks.size(); ++i) {
      if (checks[i].id == id) return static_cast<std::uint64_t>(i);
    }
    return 0;
  };

  JsonWriter json;
  json.begin_object();
  json.key("$schema").value("https://json.schemastore.org/sarif-2.1.0.json");
  json.key("version").value("2.1.0");
  json.key("runs").begin_array();
  json.begin_object();

  json.key("tool").begin_object();
  json.key("driver").begin_object();
  json.key("name").value("dvlint");
  json.key("informationUri")
      .value("https://github.com/dynvote/dynvote#static-analysis-dvlint");
  json.key("rules").begin_array();
  for (const CheckInfo& info : all_checks()) {
    json.begin_object();
    json.key("id").value(info.name);
    json.key("shortDescription").begin_object();
    json.key("text").value(info.summary);
    json.end_object();
    json.key("defaultConfiguration").begin_object();
    json.key("level").value("error");
    json.end_object();
    json.end_object();
  }
  json.end_array();  // rules
  json.end_object();  // driver
  json.end_object();  // tool

  json.key("columnKind").value("utf16CodeUnits");
  json.key("originalUriBaseIds").begin_object();
  json.key("SRCROOT").begin_object();
  json.key("description").begin_object();
  json.key("text").value("dvlint scan root: " + root);
  json.end_object();
  json.end_object();
  json.end_object();

  json.key("results").begin_array();
  for (const Finding& f : report.findings) {
    json.begin_object();
    json.key("ruleId").value(to_string(f.check));
    json.key("ruleIndex").value(rule_index(f.check));
    json.key("level").value("error");
    json.key("message").begin_object();
    json.key("text").value(f.message);
    json.end_object();
    json.key("locations").begin_array();
    json.begin_object();
    json.key("physicalLocation").begin_object();
    json.key("artifactLocation").begin_object();
    json.key("uri").value(f.file);
    json.key("uriBaseId").value("SRCROOT");
    json.end_object();
    json.key("region").begin_object();
    json.key("startLine").value(
        static_cast<std::uint64_t>(f.line == 0 ? 1 : f.line));
    json.end_object();
    json.end_object();
    json.end_object();
    json.end_array();  // locations
    json.key("partialFingerprints").begin_object();
    json.key("dvlintFinding/v1")
        .value(f.file + ":" + std::to_string(f.line) + ":" +
               std::string(to_string(f.check)) + ":" + f.detail);
    json.end_object();
    json.end_object();
  }
  json.end_array();  // results

  json.end_object();  // run
  json.end_array();   // runs
  json.end_object();
  return json.str() + "\n";
}

}  // namespace dynvote::lint
