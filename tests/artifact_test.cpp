// JSON emission and the sweep manifest: writer correctness, parser
// strictness, and the end-to-end artifact a named sweep records.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "runner/artifact.hpp"
#include "util/json.hpp"
#include "runner/sweep.hpp"

namespace dynvote {
namespace {

TEST(Json, WriterBuildsValidNestedDocuments) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("sweep");
  json.key("count").value(std::uint64_t{42});
  json.key("ratio").value(0.25);
  json.key("flag").value(true);
  json.key("missing").null();
  json.key("cases").begin_array();
  json.begin_object().key("x").value(std::int64_t{-7}).end_object();
  json.value("plain");
  json.end_array();
  json.end_object();

  const std::string& doc = json.str();
  EXPECT_TRUE(json_parse(doc).has_value()) << doc;
  EXPECT_NE(doc.find("\"count\":42"), std::string::npos);
  EXPECT_NE(doc.find("\"ratio\":0.25"), std::string::npos);
  EXPECT_NE(doc.find("\"missing\":null"), std::string::npos);
}

TEST(Json, EscapesStringsAndRejectsNonFinite) {
  JsonWriter json;
  json.begin_object();
  json.key("text").value("quote\" backslash\\ newline\n tab\t");
  json.key("inf").value(1.0 / 0.0);
  json.end_object();
  const std::string& doc = json.str();
  EXPECT_TRUE(json_parse(doc).has_value()) << doc;
  EXPECT_NE(doc.find("\\\""), std::string::npos);
  EXPECT_NE(doc.find("\\\\"), std::string::npos);
  EXPECT_NE(doc.find("\\n"), std::string::npos);
  EXPECT_NE(doc.find("\"inf\":null"), std::string::npos);
}

TEST(Json, RoundTripsDoublesExactly) {
  JsonWriter json;
  json.begin_array();
  json.value(0.1).value(1e300).value(-2.5e-8);
  json.end_array();
  EXPECT_TRUE(json_parse(json.str()).has_value());
  EXPECT_NE(json.str().find("0.1"), std::string::npos);
}

TEST(Json, ParserAcceptsRfc8259Documents) {
  for (const char* good :
       {"{}", "[]", "[1, 2.5, -3e2, \"x\", true, false, null]",
        "{\"a\": {\"b\": [{}]}}", "  {\"k\"\n:\t1}  "}) {
    EXPECT_TRUE(json_parse(good).has_value()) << good;
  }
}

TEST(Json, DomParserReadsScalarsContainersAndEscapes) {
  const auto doc = json_parse(
      "{\"s\":\"a\\n\\u0041\\u00e9\",\"n\":-2.5e2,\"b\":true,\"z\":null,"
      "\"arr\":[1,{\"k\":2}]}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("s")->as_string(), "a\nA\xc3\xa9");
  EXPECT_EQ(doc->find("n")->as_number(), -250.0);
  EXPECT_TRUE(doc->find("b")->as_bool());
  EXPECT_TRUE(doc->find("z")->is_null());
  const JsonValue& arr = *doc->find("arr");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.items().size(), 2u);
  EXPECT_EQ(arr.items()[0].as_number(), 1.0);
  EXPECT_EQ(arr.items()[1].number_or("k", -1.0), 2.0);
  EXPECT_EQ(doc->find("missing"), nullptr);
  EXPECT_EQ(doc->string_or("s", "?"), "a\nA\xc3\xa9");
  EXPECT_EQ(doc->string_or("missing", "?"), "?");
  EXPECT_EQ(doc->number_or("s", -1.0), -1.0);  // wrong kind -> fallback
}

TEST(Json, DomParserCombinesSurrogatePairs) {
  const auto doc = json_parse("\"\\ud83d\\ude00\"");  // U+1F600
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, ParserRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "{]", "{\"a\":}", "{\"a\":1,}", "[1 2]", "01", "1.",
        "\"unterminated", "nulll", "{\"a\":1} extra"}) {
    EXPECT_FALSE(json_parse(bad).has_value()) << bad;
  }
}

TEST(Json, DomParserRoundTripsWriterOutput) {
  JsonWriter json;
  json.begin_object();
  json.key("quote\"and\\slash").value("tab\there");
  json.key("pi").value(3.14159);
  json.end_object();
  const auto doc = json_parse(json.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("quote\"and\\slash")->as_string(), "tab\there");
  EXPECT_EQ(doc->find("pi")->as_number(), 3.14159);
}

SweepSpec tiny_sweep(const std::string& name) {
  SweepSpec sweep;
  sweep.name = name;
  sweep.jobs = 2;
  static NullProgress quiet;
  sweep.progress = &quiet;
  sweep.cases = availability_grid(
      {AlgorithmKind::kYkd, AlgorithmKind::kSimpleMajority}, {2.0}, 4,
      RunMode::kFreshStart, 12, 777, 16);
  return sweep;
}

TEST(Artifact, NamedSweepWritesParseableVersionedManifest) {
  const std::string dir = ::testing::TempDir() + "dynvote_artifact_test";
  ::setenv("DV_ARTIFACT_DIR", dir.c_str(), 1);

  const SweepResult swept = run_sweep(tiny_sweep("artifact_test"));
  ::unsetenv("DV_ARTIFACT_DIR");

  ASSERT_EQ(swept.artifact_path, dir + "/BENCH_artifact_test.json");
  std::ifstream in(swept.artifact_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();

  EXPECT_NE(doc.find(kSweepManifestSchema), std::string::npos);
  EXPECT_NE(doc.find("\"sweep\":\"artifact_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_describe\""), std::string::npos);
  EXPECT_NE(doc.find("\"availability_percent\""), std::string::npos);
  EXPECT_NE(doc.find("\"stable_histogram\""), std::string::npos);
  EXPECT_NE(doc.find("\"invariant_checks\""), std::string::npos);
  EXPECT_NE(doc.find("\"total_runs\":24"), std::string::npos);

  // Structured read-back: the per-case timing and delivery telemetry must
  // be present and sane on every case.
  const auto parsed = json_parse(doc);
  ASSERT_TRUE(parsed.has_value()) << doc;
  EXPECT_EQ(parsed->string_or("schema", ""), kSweepManifestSchema);
  EXPECT_FALSE(parsed->string_or("results_fingerprint", "").empty());
  const JsonValue* cases = parsed->find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_TRUE(cases->is_array());
  ASSERT_EQ(cases->items().size(), 2u);
  for (const JsonValue& c : cases->items()) {
    EXPECT_GT(c.number_or("compute_seconds", -1.0), 0.0);
    // simple-majority legitimately delivers nothing.
    if (c.string_or("algorithm", "") == "simple-majority") {
      EXPECT_EQ(c.number_or("total_deliveries", -1.0), 0.0);
    } else {
      EXPECT_GT(c.number_or("total_deliveries", -1.0), 0.0);
    }
  }
}

TEST(Artifact, ManifestJsonCoversEveryCase) {
  ::setenv("DV_ARTIFACT_DIR", "none", 1);
  const SweepSpec spec = tiny_sweep("unwritten");
  const SweepResult swept = run_sweep(spec);
  ::unsetenv("DV_ARTIFACT_DIR");
  EXPECT_TRUE(swept.artifact_path.empty());

  const std::string doc = manifest_json(spec, swept);
  EXPECT_TRUE(json_parse(doc).has_value()) << doc;
  EXPECT_NE(doc.find("\"algorithm\":\"ykd\""), std::string::npos);
  EXPECT_NE(doc.find("\"algorithm\":\"simple-majority\""), std::string::npos);
  EXPECT_NE(doc.find("\"mode\":\"fresh-start\""), std::string::npos);
}

TEST(Artifact, DisabledDirectorySkipsWriting) {
  for (const char* off : {"none", "off", "0"}) {
    ::setenv("DV_ARTIFACT_DIR", off, 1);
    const SweepResult swept = run_sweep(tiny_sweep("disabled"));
    EXPECT_TRUE(swept.artifact_path.empty()) << off;
  }
  ::unsetenv("DV_ARTIFACT_DIR");
}

}  // namespace
}  // namespace dynvote
