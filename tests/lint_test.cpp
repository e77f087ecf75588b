// dvlint against its fixture corpus: every defect class must be caught at
// the expected location, every documented opt-out must be honored, the SARIF
// report must parse, and -- the regression that keeps the tool honest -- the
// live src/ tree must be clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"
#include "util/json.hpp"

namespace dynvote::lint {
namespace {

std::string fixture_root(const std::string& name) {
  return std::string(DV_SOURCE_ROOT) + "/tests/lint_fixtures/" + name;
}

LintReport lint_fixture(const std::string& name) {
  return run_lint(fixture_root(name));
}

std::vector<std::string> details_of(const LintReport& report, CheckId check) {
  std::vector<std::string> out;
  for (const Finding& f : report.findings) {
    if (f.check == check) out.push_back(f.detail);
  }
  return out;
}

TEST(LintFixtures, CleanCorpusProducesNoFindings) {
  const LintReport report = lint_fixture("clean");
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_TRUE(report.findings.empty()) << render_text(report);
}

TEST(LintFixtures, MissingSnapshotFieldFlaggedOnBothSides) {
  const LintReport report = lint_fixture("snapshot_missing");
  ASSERT_EQ(report.findings.size(), 2u) << render_text(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.check, CheckId::kSnapshotCompleteness);
    EXPECT_EQ(f.file, "core/widget.hpp");
    EXPECT_EQ(f.detail, "high_water_");
    EXPECT_NE(f.line, 0u);
  }
  // One finding per side, distinguished by the message.
  EXPECT_NE(report.findings[0].message, report.findings[1].message);
}

TEST(LintFixtures, EveryDeterminismHazardCaught) {
  const LintReport report = lint_fixture("determinism");
  const std::vector<std::string> details =
      details_of(report, CheckId::kDeterminism);
  ASSERT_EQ(report.findings.size(), details.size()) << render_text(report);
  const auto has = [&](const std::string& d) {
    return std::count(details.begin(), details.end(), d) == 1;
  };
  EXPECT_TRUE(has("rand")) << render_text(report);     // unseeded randomness
  EXPECT_TRUE(has("time")) << render_text(report);     // wall clock
  EXPECT_TRUE(has("map")) << render_text(report);      // pointer-keyed map
  EXPECT_TRUE(has("samples")) << render_text(report);  // unordered range-for
  EXPECT_EQ(details.size(), 4u) << render_text(report);
}

TEST(LintFixtures, LayeringViolationsCaught) {
  const LintReport report = lint_fixture("layering");
  const std::vector<std::string> details =
      details_of(report, CheckId::kLayering);
  ASSERT_EQ(report.findings.size(), details.size()) << render_text(report);
  ASSERT_EQ(details.size(), 2u) << render_text(report);
  // Sorted by line: bench/ include first, then the DAG climb.
  EXPECT_EQ(details[0], "bench/harness.hpp");
  EXPECT_EQ(details[1], "sim/driver.hpp");
}

TEST(LintFixtures, DecodePathAssertCaught) {
  const LintReport report = lint_fixture("decode_assert");
  ASSERT_EQ(report.findings.size(), 1u) << render_text(report);
  const Finding& f = report.findings[0];
  EXPECT_EQ(f.check, CheckId::kDecodeThrow);
  EXPECT_EQ(f.file, "gcs/codec.cpp");
  EXPECT_EQ(f.detail, "DV_ASSERT");
  EXPECT_NE(f.message.find("DecodeError"), std::string::npos);
}

TEST(LintFixtures, RngStreamPairsTaggedAndUntagged) {
  const LintReport report = lint_fixture("rng_stream");
  EXPECT_EQ(report.files_scanned, 2u);
  ASSERT_EQ(report.findings.size(), 4u) << render_text(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.check, CheckId::kRngStream);
    EXPECT_EQ(f.file, "sim/streams_untagged.hpp");
  }
  // Registry collision (same value as kAlphaStreamTag), literal tag,
  // unknown tag, raw seed -- in line order.
  EXPECT_EQ(report.findings[0].line, 12u);
  EXPECT_EQ(report.findings[0].detail, "kCloneStreamTag");
  EXPECT_NE(report.findings[0].message.find("'kAlphaStreamTag'"),
            std::string::npos);
  EXPECT_EQ(report.findings[1].line, 20u);
  EXPECT_EQ(report.findings[1].detail, "child_seed");
  EXPECT_EQ(report.findings[2].line, 24u);
  EXPECT_NE(report.findings[2].message.find("'kGhostStreamTag'"),
            std::string::npos);
  EXPECT_EQ(report.findings[3].line, 28u);
  EXPECT_EQ(report.findings[3].detail, "schedule_rng");
}

TEST(LintFixtures, BoundedDecodePairsBoundedAndUnbounded) {
  const LintReport report = lint_fixture("bounded_decode");
  EXPECT_EQ(report.files_scanned, 2u);
  ASSERT_EQ(report.findings.size(), 2u) << render_text(report);
  const Finding& via_count = report.findings[0];
  EXPECT_EQ(via_count.check, CheckId::kBoundedDecode);
  EXPECT_EQ(via_count.file, "gcs/unbounded_codec.hpp");
  EXPECT_EQ(via_count.line, 15u);
  EXPECT_EQ(via_count.detail, "n");  // reserve from an unbounded count
  EXPECT_NE(via_count.message.find("remaining"), std::string::npos);
  const Finding& via_getter = report.findings[1];
  EXPECT_EQ(via_getter.line, 23u);
  EXPECT_EQ(via_getter.detail, "get_varint");  // resize(dec.get_varint())
}

TEST(LintFixtures, TracePurityPairsPureAndImpure) {
  const LintReport report = lint_fixture("trace_purity");
  EXPECT_EQ(report.files_scanned, 2u);
  // pure_emit.hpp contributes nothing (its one impure argument carries the
  // documented opt-out); impure_emit.hpp flags all four shapes.
  ASSERT_EQ(report.findings.size(), 4u) << render_text(report);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.check, CheckId::kTracePurity);
    EXPECT_EQ(f.file, "sim/impure_emit.hpp");
  }
  EXPECT_EQ(report.findings[0].detail, "rng");
  EXPECT_NE(report.findings[0].message.find("randomness"), std::string::npos);
  EXPECT_EQ(report.findings[1].detail, "++");
  EXPECT_EQ(report.findings[2].detail, "=");
  EXPECT_NE(report.findings[2].message.find("assignment"), std::string::npos);
  EXPECT_EQ(report.findings[3].detail, "clear");
  EXPECT_NE(report.findings[3].message.find("mutator"), std::string::npos);
}

TEST(LintFixtures, LexerHandlesRawStringsAndContinuations) {
  // The fixture packs rand()/time() text into a multi-line raw string, a
  // delimited raw string and a backslash-continued comment; only the one
  // real call may fire, and at its true physical line (proving the lexer
  // kept line accounting across the multi-line literal).
  const LintReport report = lint_fixture("lexer");
  EXPECT_EQ(report.files_scanned, 1u);
  ASSERT_EQ(report.findings.size(), 1u) << render_text(report);
  EXPECT_EQ(report.findings[0].check, CheckId::kDeterminism);
  EXPECT_EQ(report.findings[0].file, "sim/tricky.hpp");
  EXPECT_EQ(report.findings[0].line, 20u);
  EXPECT_EQ(report.findings[0].detail, "rand");
}

TEST(LintChecks, CatalogueRoundTripsAndCoversEveryCheck) {
  ASSERT_EQ(all_checks().size(), 7u);
  for (std::size_t i = 0; i < all_checks().size(); ++i) {
    const CheckInfo& info = all_checks()[i];
    EXPECT_EQ(static_cast<std::size_t>(info.id), i) << info.name;
    EXPECT_EQ(to_string(info.id), info.name);
    EXPECT_FALSE(info.summary.empty()) << info.name;
  }
}

TEST(LintFixtures, FindingsAreSortedAndUnique) {
  const LintReport report = lint_fixture("determinism");
  EXPECT_TRUE(
      std::is_sorted(report.findings.begin(), report.findings.end()));
  EXPECT_EQ(std::adjacent_find(report.findings.begin(),
                               report.findings.end()),
            report.findings.end());
}

TEST(LintSarif, ReportMatchesSarif210Shape) {
  const LintReport dirty = lint_fixture("rng_stream");
  ASSERT_FALSE(dirty.findings.empty());
  const std::string sarif = render_sarif(dirty, "rng_stream");
  const std::optional<JsonValue> doc = json_parse(sarif);
  ASSERT_TRUE(doc.has_value()) << sarif;

  // Top-level SARIF 2.1.0 envelope.
  EXPECT_EQ(doc->string_or("version", ""), "2.1.0");
  EXPECT_NE(doc->string_or("$schema", "").find("sarif-2.1.0"),
            std::string_view::npos);
  const JsonValue* runs = doc->find("runs");
  ASSERT_TRUE(runs != nullptr && runs->is_array());
  ASSERT_EQ(runs->items().size(), 1u);
  const JsonValue& run = runs->items()[0];

  // The driver advertises every check as a reporting rule, in CheckId
  // order, so ruleIndex below can index straight into it.
  const JsonValue* tool = run.find("tool");
  ASSERT_TRUE(tool != nullptr);
  const JsonValue* driver = tool->find("driver");
  ASSERT_TRUE(driver != nullptr);
  EXPECT_EQ(driver->string_or("name", ""), "dvlint");
  const JsonValue* rules = driver->find("rules");
  ASSERT_TRUE(rules != nullptr && rules->is_array());
  ASSERT_EQ(rules->items().size(), all_checks().size());
  for (std::size_t i = 0; i < rules->items().size(); ++i) {
    const JsonValue& rule = rules->items()[i];
    EXPECT_EQ(rule.string_or("id", ""), all_checks()[i].name);
    const JsonValue* text = rule.find("shortDescription");
    ASSERT_TRUE(text != nullptr);
    EXPECT_FALSE(text->string_or("text", "").empty());
  }

  // One result per finding, with a resolvable ruleId/ruleIndex pair, a
  // physical location anchored under SRCROOT and a stable fingerprint.
  const JsonValue* results = run.find("results");
  ASSERT_TRUE(results != nullptr && results->is_array());
  ASSERT_EQ(results->items().size(), dirty.findings.size());
  for (std::size_t i = 0; i < results->items().size(); ++i) {
    const JsonValue& result = results->items()[i];
    const Finding& finding = dirty.findings[i];
    EXPECT_EQ(result.string_or("ruleId", ""), to_string(finding.check));
    const auto rule_index =
        static_cast<std::size_t>(result.number_or("ruleIndex", -1.0));
    ASSERT_LT(rule_index, rules->items().size());
    EXPECT_EQ(rules->items()[rule_index].string_or("id", ""),
              to_string(finding.check));
    EXPECT_EQ(result.string_or("level", ""), "error");
    const JsonValue* message = result.find("message");
    ASSERT_TRUE(message != nullptr);
    EXPECT_EQ(message->string_or("text", ""), finding.message);
    const JsonValue* locations = result.find("locations");
    ASSERT_TRUE(locations != nullptr && locations->is_array());
    ASSERT_EQ(locations->items().size(), 1u);
    const JsonValue* physical =
        locations->items()[0].find("physicalLocation");
    ASSERT_TRUE(physical != nullptr);
    const JsonValue* artifact = physical->find("artifactLocation");
    ASSERT_TRUE(artifact != nullptr);
    EXPECT_EQ(artifact->string_or("uri", ""), finding.file);
    EXPECT_EQ(artifact->string_or("uriBaseId", ""), "SRCROOT");
    const JsonValue* region = physical->find("region");
    ASSERT_TRUE(region != nullptr);
    EXPECT_GE(region->number_or("startLine", 0.0), 1.0);
    EXPECT_TRUE(result.find("partialFingerprints") != nullptr);
  }

  // A clean run still emits a valid document with an empty results array.
  const std::optional<JsonValue> clean_doc =
      json_parse(render_sarif(lint_fixture("clean"), "clean"));
  ASSERT_TRUE(clean_doc.has_value());
  const JsonValue* clean_results =
      clean_doc->find("runs")->items()[0].find("results");
  ASSERT_TRUE(clean_results != nullptr && clean_results->is_array());
  EXPECT_TRUE(clean_results->items().empty());
}

TEST(LintFixtures, RenderTextSummarizesCounts) {
  const std::string text = render_text(lint_fixture("snapshot_missing"));
  EXPECT_NE(text.find("core/widget.hpp:"), std::string::npos);
  EXPECT_NE(text.find("2 findings"), std::string::npos);
}

TEST(LintFixtures, UnreadableRootThrows) {
  EXPECT_THROW(run_lint(fixture_root("no_such_fixture")), std::runtime_error);
}

// The teeth: the shipped source tree itself stays dvlint-clean, so any
// future snapshot straggler, hash-order fold or layering break fails CI
// through this test even before the dedicated CI job runs.
TEST(LintLiveTree, SrcIsClean) {
  const LintReport report = run_lint(std::string(DV_SOURCE_ROOT) + "/src");
  EXPECT_GE(report.files_scanned, 60u);
  EXPECT_TRUE(report.findings.empty()) << render_text(report);
}

}  // namespace
}  // namespace dynvote::lint
