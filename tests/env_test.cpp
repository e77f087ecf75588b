// Shared DV_* environment parsing: well-formed values apply, malformed
// values fall back (with a warning) instead of being silently ignored.
// The strict number parsers underneath are shared with the command-line
// tools' numeric flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "util/env.hpp"

namespace dynvote {
namespace {

TEST(ParseNumber, U64TakesOnlyAWholeUnsignedNumber) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("400"), 400u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64(" 7"), 7u);  // leading whitespace, as strtoull skips
  EXPECT_EQ(parse_u64("+7"), 7u);
  // "1e3" is not 1, "-1" is not 2^64-1, and "abc" is not 0.
  for (const char* bad : {"", " ", "abc", "1e3", "12x4", "7 ", "0x10", "2,3",
                          "-1", " -5", "-0", "18446744073709551616",
                          "99999999999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(ParseNumber, DoubleTakesOnlyAWholeFiniteNumber) {
  EXPECT_EQ(parse_double("2"), 2.0);
  EXPECT_EQ(parse_double("-0.25"), -0.25);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  // Gradual underflow is a representable value.
  const auto tiny = parse_double("1e-320");
  ASSERT_TRUE(tiny.has_value());
  EXPECT_GT(*tiny, 0.0);
  for (const char* bad : {"", "x", "2.5qq", "2,x", "4 ", "1e999", "-1e999",
                          "inf", "-inf", "nan"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << '"' << bad << '"';
  }
}

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kName); }
  static constexpr const char* kName = "DV_ENV_TEST_VALUE";
};

TEST_F(EnvTest, StringUnsetAndEmptyAreNullopt) {
  ::unsetenv(kName);
  EXPECT_FALSE(env_string(kName).has_value());
  ::setenv(kName, "", 1);
  EXPECT_FALSE(env_string(kName).has_value());
  ::setenv(kName, "dir/path", 1);
  EXPECT_EQ(env_string(kName).value(), "dir/path");
}

TEST_F(EnvTest, U64ParsesAndFallsBack) {
  ::setenv(kName, "1234", 1);
  EXPECT_EQ(env_u64(kName, 7), 1234u);
  ::setenv(kName, "12x4", 1);
  EXPECT_EQ(env_u64(kName, 7), 7u);  // trailing garbage
  ::setenv(kName, "-3", 1);
  EXPECT_EQ(env_u64(kName, 7), 7u);  // negative is not unsigned
  ::setenv(kName, "number", 1);
  EXPECT_EQ(env_u64(kName, 7), 7u);
  ::unsetenv(kName);
  EXPECT_EQ(env_u64(kName, 7), 7u);
}

TEST_F(EnvTest, OutOfRangeValuesWarnInsteadOfClamping) {
  // A negative number for an unsigned knob (DV_FABRIC_PORT=-5) would wrap
  // under plain strtoull; it must warn as out-of-range and fall back.
  ::setenv(kName, "-5", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_u64(kName, 30000), 30000u);
  std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("out-of-range"), std::string::npos) << log;
  EXPECT_NE(log.find("-5"), std::string::npos) << log;

  // strtoull skips leading whitespace before the sign, so a padded
  // negative must be caught the same way, not wrap to near-2^64.
  ::setenv(kName, " -5", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_u64(kName, 30000), 30000u);
  log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("out-of-range"), std::string::npos) << log;

  // Wider than 64 bits saturates with ERANGE: also out-of-range, never
  // the clamped ULLONG_MAX.
  ::setenv(kName, "99999999999999999999999999", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env_u64(kName, 7), 7u);
  log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("out-of-range"), std::string::npos) << log;
}

TEST_F(EnvTest, BoolAcceptsWordForms) {
  for (const char* yes : {"1", "true", "TRUE", "yes", "On"}) {
    ::setenv(kName, yes, 1);
    EXPECT_TRUE(env_bool(kName, false)) << yes;
  }
  for (const char* no : {"0", "false", "NO", "off"}) {
    ::setenv(kName, no, 1);
    EXPECT_FALSE(env_bool(kName, true)) << no;
  }
  ::unsetenv(kName);
  EXPECT_TRUE(env_bool(kName, true));
  EXPECT_FALSE(env_bool(kName, false));
}

TEST_F(EnvTest, BoolNumericNonBinaryWarnsOutOfRange) {
  // DV_TRACE=2 or DV_TRACE=-1 is a parseable number a boolean cannot
  // hold: the env_u64 discipline calls that out-of-range, not malformed.
  for (const char* numeric : {"2", "-1", "42"}) {
    ::setenv(kName, numeric, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(env_bool(kName, false)) << numeric;
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("out-of-range"), std::string::npos) << log;
    EXPECT_NE(log.find(numeric), std::string::npos) << log;
  }
}

TEST_F(EnvTest, BoolGarbageWarnsMalformedAndFallsBack) {
  ::setenv(kName, "maybe", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_TRUE(env_bool(kName, true));
  std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("malformed"), std::string::npos) << log;

  ::setenv(kName, "1x", 1);
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(env_bool(kName, false));
  log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("malformed"), std::string::npos) << log;
}

}  // namespace
}  // namespace dynvote
