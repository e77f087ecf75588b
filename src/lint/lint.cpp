#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>

#include "lint/parse.hpp"
#include "lint/source.hpp"
#include "util/json.hpp"

namespace dynvote::lint {

namespace fs = std::filesystem;

namespace {

constexpr CheckInfo kChecks[] = {
    {CheckId::kDeterminism, "determinism",
     "no unseeded randomness, wall-clock reads, pointer-keyed ordering or "
     "unordered containers in result-affecting paths"},
    {CheckId::kLayering, "layering",
     "includes must respect the layer DAG: util < obs < core < gcs < sim "
     "< runner < fabric < lint"},
    {CheckId::kDecodeThrow, "decode-throw",
     "decode paths throw DecodeError on malformed input instead of "
     "asserting"},
    {CheckId::kBoundedDecode, "bounded-decode",
     "decode-side reserve()/resize() from a decoded count is bounded by "
     "the decoder's remaining bytes first"},
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

constexpr std::array<std::string_view, 2> kDecodeMethods = {"decode",
                                                            "decode_body"};

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
// Check 3: decode paths must throw DecodeError

void check_decode_throw(const std::vector<ParsedFile>& files,
                        std::vector<Finding>& findings) {
  for (const ParsedFile& pf : files) {
    for (const ClassDecl& cls : pf.classes) {
      std::vector<BodyRef> bodies;
      for (std::string_view m : kDecodeMethods) {
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
          f.message = "class " + cls.name + ": decode path uses " +
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
// Check 1: determinism hygiene

constexpr std::array<std::string_view, 9> kRandomnessTokens = {
    "rand",         "srand",
    "drand48",      "random_device",
    "mt19937",      "mt19937_64",
    "minstd_rand",  "default_random_engine",
    "random_shuffle"};

constexpr std::array<std::string_view, 4> kWallClockTokens = {
    "system_clock", "gettimeofday", "localtime", "strftime"};

constexpr std::array<std::string_view, 4> kUnorderedTokens = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::array<std::string_view, 4> kOrderedByKey = {
    "map", "set", "multimap", "multiset"};

void check_determinism(const std::vector<ParsedFile>& files,
                       std::vector<Finding>& findings) {
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
      // A hash-ordered container is flagged where it is named, not where it
      // is iterated: no result-affecting directory needs one.
      if (std::find(kUnorderedTokens.begin(), kUnorderedTokens.end(), t) !=
          kUnorderedTokens.end()) {
        flag(tokens[i].offset, std::string(t),
             "unordered container '" + std::string(t) +
                 "' in a result-affecting path iterates in hash order; use "
                 "an ordered container or a sorted vector");
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
  }
}

// ---------------------------------------------------------------------------
// Check 2: include layering

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
// Check 4: bounded decode
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
  check_determinism(parsed, findings);
  check_layering(parsed, findings);
  check_decode_throw(parsed, findings);
  check_bounded_decode(parsed, findings);
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
