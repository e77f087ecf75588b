#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <type_traits>

#include "util/rng.hpp"

namespace dynvote {
namespace {

// A stream tag is a type: a bare integer is neither a tag nor a seed, so a
// loop counter or a literal cannot stand in for a registered stream.
static_assert(!std::is_invocable_v<decltype(&child_seed), std::uint64_t,
                                   std::uint64_t>);
static_assert(
    std::is_invocable_v<decltype(&child_seed), std::uint64_t, StreamTag>);
static_assert(!std::is_constructible_v<Rng, std::uint64_t>);
static_assert(!std::is_constructible_v<Rng, std::uint64_t, std::uint64_t>);
static_assert(std::is_constructible_v<Rng, std::uint64_t, StreamTag>);

TEST(Rng, DeterministicForAGivenSeed) {
  Rng a = Rng::from_raw_seed(99);
  Rng b = Rng::from_raw_seed(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a = Rng::from_raw_seed(1);
  Rng b = Rng::from_raw_seed(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng = Rng::from_raw_seed(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng = Rng::from_raw_seed(13);
  double total = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRangeAndHitsAllValues) {
  Rng rng = Rng::from_raw_seed(21);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowZeroBoundThrows) {
  Rng rng = Rng::from_raw_seed(1);
  EXPECT_THROW((void)rng.below(0), PreconditionViolation);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng = Rng::from_raw_seed(33);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.between(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(rng.between(9, 9), 9u);
  EXPECT_THROW((void)rng.between(5, 3), PreconditionViolation);
}

TEST(Rng, ChanceRespectsExtremes) {
  Rng rng = Rng::from_raw_seed(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.5));   // clamped
    EXPECT_FALSE(rng.chance(-0.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng = Rng::from_raw_seed(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, TaggedStreamIsTheChildSeedStream) {
  Rng tagged(42, StreamTag::kSleepy);
  Rng raw = Rng::from_raw_seed(child_seed(42, StreamTag::kSleepy));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(tagged.next_u64(), raw.next_u64());
}

TEST(StreamTag, ValuesAreFrozen) {
  // Every stream's draws, and so every committed result, follow from these.
  EXPECT_EQ(static_cast<std::uint64_t>(StreamTag::kDelivery), 0xDE11u);
  EXPECT_EQ(static_cast<std::uint64_t>(StreamTag::kSleepy), 0x51EE9u);
  EXPECT_EQ(static_cast<std::uint64_t>(StreamTag::kRepair), 0x4E9A12u);
  EXPECT_EQ(static_cast<std::uint64_t>(StreamTag::kBenchFullRun), 0xBE7CF1u);
  EXPECT_EQ(static_cast<std::uint64_t>(StreamTag::kBenchFullRunUnchecked),
            0xBE7CF2u);
  EXPECT_EQ(child_seed(7, StreamTag::kDelivery), mix_seed(7, 0xDE11u));
}

TEST(StreamTag, EveryTagIsNamed) {
  const std::set<std::string_view> names = {
      to_string(StreamTag::kDelivery), to_string(StreamTag::kSleepy),
      to_string(StreamTag::kRepair), to_string(StreamTag::kBenchFullRun),
      to_string(StreamTag::kBenchFullRunUnchecked)};
  EXPECT_EQ(names.size(), 5u);
  EXPECT_EQ(names.count("unknown"), 0u);
}

TEST(MixSeed, DistinguishesCoordinates) {
  // Different case coordinates must land in different streams.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 5; ++a) {
    for (std::uint64_t b = 0; b < 5; ++b) {
      for (std::uint64_t c = 0; c < 5; ++c) {
        seeds.insert(mix_seed(42, a, b, c));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 125u);
}

TEST(MixSeed, IsAPureFunction) {
  EXPECT_EQ(mix_seed(1, 2, 3, 4, 5), mix_seed(1, 2, 3, 4, 5));
  EXPECT_NE(mix_seed(1, 2, 3, 4, 5), mix_seed(1, 2, 3, 5, 4));
}

}  // namespace
}  // namespace dynvote
