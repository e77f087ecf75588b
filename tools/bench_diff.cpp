// bench_diff: compare two sweep manifests for results drift.
//
//   bench_diff BASELINE.json CANDIDATE.json
//
// Sweep manifests ("dynvote.sweep.*") carry a results_fingerprint: the
// hash of the deterministic results document, so identical fingerprints
// mean bit-identical simulation results.  Differing fingerprints are a
// correctness event: the tool diffs availability per case and exits
// non-zero so CI fails.  Timing fields are never read -- speed is measured
// on one host by the sweep benchmark (perfbench/), not across manifests
// recorded on different machines.
//
// Exit codes, CI-stable:
//   0  fingerprints match
//   1  results fingerprints differ
//   2  usage, I/O, parse, or schema error
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace {

using dynvote::JsonValue;

std::optional<JsonValue> load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "bench_diff: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<JsonValue> doc = dynvote::json_parse(buf.str());
  if (!doc || !doc->is_object()) {
    std::cerr << "bench_diff: " << path << " is not a JSON object\n";
    return std::nullopt;
  }
  if (doc->string_or("schema", "").substr(0, 14) != "dynvote.sweep.") {
    std::cerr << "bench_diff: " << path << " is not a sweep manifest (schema '"
              << doc->string_or("schema", "") << "')\n";
    return std::nullopt;
  }
  return doc;
}

/// Case coordinates, the join key between two sweeps of the same shape.
std::string case_key(const JsonValue& c) {
  std::ostringstream key;
  key << c.string_or("algorithm", "?") << " p=" << c.number_or("processes", -1)
      << " c=" << c.number_or("changes", -1) << " r=" << c.number_or("rate", -1)
      << " " << c.string_or("mode", "?");
  if (c.number_or("crash_fraction", 0.0) > 0.0) {
    key << " crash=" << c.number_or("crash_fraction", 0.0);
  }
  // Non-geometric cases carry a fault_model block; every parameter joins
  // the key so differently-parameterized sweeps can never be compared as
  // if they were the same case.
  const JsonValue* model = c.find("fault_model");
  if (model != nullptr && model->is_object()) {
    key << " model=" << model->string_or("model", "?") << '[';
    bool first = true;
    for (const auto& [name, value] : model->members()) {
      if (name == "model") continue;
      if (!first) key << ',';
      first = false;
      key << name << '=';
      if (value.is_number()) {
        key << value.as_number();
      } else if (value.is_string()) {
        key << value.as_string();
      }
    }
    key << ']';
  }
  return key.str();
}

const JsonValue* find_case(const JsonValue& manifest, const std::string& key) {
  const JsonValue* cases = manifest.find("cases");
  if (cases == nullptr || !cases->is_array()) return nullptr;
  for (const JsonValue& c : cases->items()) {
    if (case_key(c) == key) return &c;
  }
  return nullptr;
}

int diff_sweeps(const JsonValue& base, const JsonValue& cand) {
  const std::string_view base_fp = base.string_or("results_fingerprint", "");
  const std::string_view cand_fp = cand.string_or("results_fingerprint", "");
  if (base_fp.empty() || cand_fp.empty()) {
    std::cerr << "bench_diff: sweep manifest lacks results_fingerprint\n";
    return 2;
  }
  if (base.string_or("sweep", "") != cand.string_or("sweep", "")) {
    std::cerr << "bench_diff: comparing different sweeps ('"
              << base.string_or("sweep", "?") << "' vs '"
              << cand.string_or("sweep", "?") << "')\n";
    return 2;
  }
  if (base_fp == cand_fp) {
    std::cout << "results fingerprints match (" << base_fp << ")\n";
    return 0;
  }

  std::cout << "RESULTS FINGERPRINT MISMATCH: " << base_fp << " vs " << cand_fp
            << "\n";
  const JsonValue* base_cases = base.find("cases");
  if (base_cases != nullptr && base_cases->is_array()) {
    for (const JsonValue& c : base_cases->items()) {
      const std::string key = case_key(c);
      const JsonValue* other = find_case(cand, key);
      if (other == nullptr) {
        std::cout << "  " << key << ": missing from candidate\n";
        continue;
      }
      const double base_avail = c.number_or("availability_percent", -1.0);
      const double cand_avail = other->number_or("availability_percent", -1.0);
      const double base_succ = c.number_or("successes", -1.0);
      const double cand_succ = other->number_or("successes", -1.0);
      if (base_avail != cand_avail || base_succ != cand_succ) {
        std::cout << "  " << key << ": availability " << base_avail << "% -> "
                  << cand_avail << "% (successes " << base_succ << " -> "
                  << cand_succ << ")\n";
      }
    }
    const JsonValue* cand_cases = cand.find("cases");
    if (cand_cases != nullptr && cand_cases->is_array()) {
      for (const JsonValue& c : cand_cases->items()) {
        if (find_case(base, case_key(c)) == nullptr) {
          std::cout << "  " << case_key(c) << ": missing from baseline\n";
        }
      }
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: " << argv[0] << " BASELINE.json CANDIDATE.json\n";
    return 2;
  }
  const std::optional<JsonValue> base = load_manifest(argv[1]);
  const std::optional<JsonValue> cand = load_manifest(argv[2]);
  if (!base || !cand) return 2;
  return diff_sweeps(*base, *cand);
}
