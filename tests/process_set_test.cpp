#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/process_set.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

TEST(ProcessSet, StartsEmpty) {
  ProcessSet s(10);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.lowest(), kInvalidProcess);
  EXPECT_EQ(s.universe_size(), 10u);
}

TEST(ProcessSet, InsertContainsErase) {
  ProcessSet s(10);
  s.insert(3);
  s.insert(7);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(7));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(), 2u);
  s.erase(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1u);
  s.erase(3);  // idempotent
  EXPECT_EQ(s.count(), 1u);
}

TEST(ProcessSet, ContainsOutOfUniverseIsFalse) {
  ProcessSet s(10, {0, 9});
  EXPECT_FALSE(s.contains(10));
  EXPECT_FALSE(s.contains(kInvalidProcess));
}

TEST(ProcessSet, InsertOutOfUniverseThrows) {
  ProcessSet s(10);
  EXPECT_THROW(s.insert(10), PreconditionViolation);
}

TEST(ProcessSet, FullSetCoversExactlyTheUniverse) {
  for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 127u, 128u}) {
    const ProcessSet s = ProcessSet::full(n);
    EXPECT_EQ(s.count(), n) << "n=" << n;
    EXPECT_TRUE(s.contains(static_cast<ProcessId>(n - 1)));
    EXPECT_FALSE(s.contains(static_cast<ProcessId>(n)));
    EXPECT_EQ(s.lowest(), 0u);
  }
}

TEST(ProcessSet, LowestFindsFirstMemberAcrossWords) {
  ProcessSet s(128);
  s.insert(127);
  s.insert(77);
  EXPECT_EQ(s.lowest(), 77u);
  s.insert(3);
  EXPECT_EQ(s.lowest(), 3u);
}

// nth_member ranks members in ascending order, across both words, the
// same order members() lists them in.
TEST(ProcessSet, NthMemberRanksMembersAcrossWords) {
  const ProcessSet s(128, {3, 63, 64, 77, 127});
  const std::vector<ProcessId> listed = s.members();
  for (std::size_t rank = 0; rank < listed.size(); ++rank) {
    EXPECT_EQ(s.nth_member(rank), listed[rank]) << "rank " << rank;
  }
  EXPECT_THROW((void)s.nth_member(listed.size()), PreconditionViolation);
  EXPECT_THROW((void)ProcessSet(8).nth_member(0), PreconditionViolation);
}

TEST(ProcessSet, SetAlgebra) {
  const ProcessSet a(8, {0, 1, 2, 3});
  const ProcessSet b(8, {2, 3, 4, 5});
  EXPECT_EQ(a.intersection_count(b), 2u);
  EXPECT_EQ(a.united_with(b), ProcessSet(8, {0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(a.intersected_with(b), ProcessSet(8, {2, 3}));
  EXPECT_EQ(a.minus(b), ProcessSet(8, {0, 1}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(ProcessSet(8, {6, 7})));
}

TEST(ProcessSet, SubsetChecks) {
  const ProcessSet small(8, {1, 2});
  const ProcessSet big(8, {0, 1, 2, 3});
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
  EXPECT_TRUE(ProcessSet(8).is_subset_of(small));
}

TEST(ProcessSet, MixedUniverseOperationsThrow) {
  const ProcessSet a(8, {1});
  const ProcessSet b(9, {1});
  EXPECT_THROW((void)a.intersection_count(b), PreconditionViolation);
  EXPECT_THROW((void)a.is_subset_of(b), PreconditionViolation);
  EXPECT_THROW((void)a.united_with(b), PreconditionViolation);
}

TEST(ProcessSet, MembersAndForEachAgree) {
  const ProcessSet s(128, {0, 63, 64, 65, 127});
  EXPECT_EQ(s.members(), (std::vector<ProcessId>{0, 63, 64, 65, 127}));
  std::vector<ProcessId> seen;
  s.for_each([&](ProcessId p) { seen.push_back(p); });
  EXPECT_EQ(seen, s.members());
}

TEST(ProcessSet, ToString) {
  EXPECT_EQ(ProcessSet(8, {1, 5}).to_string(), "{1,5}");
  EXPECT_EQ(ProcessSet(8).to_string(), "{}");
}

TEST(ProcessSet, CompareIsATotalOrder) {
  const ProcessSet a(8, {0});
  const ProcessSet b(8, {1});
  const ProcessSet c(8, {0, 1});
  EXPECT_EQ(a.compare(a), 0);
  EXPECT_NE(a.compare(b), 0);
  // antisymmetry
  EXPECT_EQ(a.compare(b) < 0, b.compare(a) > 0);
  // transitivity spot-check over all pairs of a few sets
  const std::vector<ProcessSet> sets{a, b, c, ProcessSet(8, {7}),
                                     ProcessSet(8, {0, 7}), ProcessSet(8)};
  for (const auto& x : sets) {
    for (const auto& y : sets) {
      if (x.compare(y) == 0) {
        EXPECT_EQ(x, y);
      }
    }
  }
}

TEST(ProcessSet, EncodeDecodeRoundTrip) {
  const ProcessSet original(128, {0, 63, 64, 65, 127});
  Encoder enc;
  original.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(ProcessSet::decode(dec, 128), original);
  dec.finish();
}

TEST(ProcessSet, DecodeRejectsBitsOutsideUniverse) {
  Encoder enc;
  enc.put_varint(4);                      // universe of 4...
  enc.put_u64_fixed(0xFF);                // ...but 8 bits set
  Decoder dec(enc.bytes());
  EXPECT_THROW(ProcessSet::decode(dec, 4), DecodeError);
}

TEST(ProcessSet, DecodeRejectsImplausibleUniverse) {
  Encoder enc;
  enc.put_varint(2'000'000);
  Decoder dec(enc.bytes());
  EXPECT_THROW(ProcessSet::decode(dec, 64), DecodeError);
}

// A set is decoded into a world: one drawn over any other universe, larger
// or smaller, could index past that world's per-process tables.
TEST(ProcessSet, DecodeRejectsAnotherUniverse) {
  for (const auto& [encoded, expected] :
       {std::pair<std::size_t, std::size_t>{4, 128}, {64, 65}, {65, 64}}) {
    SCOPED_TRACE(std::to_string(encoded) + " into " + std::to_string(expected));
    Encoder enc;
    ProcessSet(encoded, {0, 3}).encode(enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(ProcessSet::decode(dec, expected), DecodeError);
  }
  // A universe past the cap, which no ProcessSet can encode: {0, 150} over
  // 200 processes, written by hand.
  Encoder enc;
  enc.put_varint(200);
  for (const std::uint64_t word : {1ULL, 0ULL, 1ULL << (150 - 128), 0ULL}) {
    enc.put_u64_fixed(word);
  }
  Decoder dec(enc.bytes());
  EXPECT_THROW(ProcessSet::decode(dec, 4), DecodeError);
}

TEST(ProcessSet, UniversePastTheCapIsRefused) {
  EXPECT_EQ(ProcessSet::full(ProcessSet::kMaxUniverse).count(), 128u);
  try {
    (void)ProcessSet(ProcessSet::kMaxUniverse + 1);
    FAIL() << "a universe of 129 was accepted";
  } catch (const PreconditionViolation& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("at most 128"), std::string::npos) << message;
    EXPECT_NE(message.find("129"), std::string::npos) << message;
  }
  EXPECT_THROW((void)ProcessSet::full(129), PreconditionViolation);
  EXPECT_THROW(ProcessSet(std::size_t{1} << 20, {0}), PreconditionViolation);
}

// The word boundaries: 64 fills the first word, 65 starts the second, 127
// leaves a one-bit tail and 128 fills both words.  Everything observable --
// algebra, compare, wire bytes -- must behave the same at each.
class ProcessSetWordBoundary : public testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Universes, ProcessSetWordBoundary,
                         testing::Values(64u, 65u, 127u, 128u));

TEST_P(ProcessSetWordBoundary, AlgebraAtBoundary) {
  const std::size_t n = GetParam();
  ProcessSet evens(n), low_half(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (p % 2 == 0) evens.insert(p);
    if (p < n / 2) low_half.insert(p);
  }
  const ProcessSet both = evens.intersected_with(low_half);
  const ProcessSet either = evens.united_with(low_half);
  const ProcessSet odd_high = ProcessSet::full(n).minus(either);
  EXPECT_EQ(either.count() + both.count(), evens.count() + low_half.count());
  EXPECT_TRUE(both.is_subset_of(evens));
  EXPECT_TRUE(both.is_subset_of(low_half));
  EXPECT_FALSE(odd_high.intersects(either));
  EXPECT_EQ(either.united_with(odd_high), ProcessSet::full(n));
  // The last id exercises the top bit of the final word on every side.
  const ProcessSet last(n, {static_cast<ProcessId>(n - 1)});
  EXPECT_TRUE(last.is_subset_of(ProcessSet::full(n)));
  EXPECT_EQ(ProcessSet::full(n).minus(last).count(), n - 1);
}

TEST_P(ProcessSetWordBoundary, CompareAtBoundary) {
  const std::size_t n = GetParam();
  const ProcessSet a(n, {0, static_cast<ProcessId>(n - 1)});
  ProcessSet b(n);
  b.insert(0);
  b.insert(static_cast<ProcessId>(n - 1));
  EXPECT_EQ(a.compare(b), 0);
  EXPECT_EQ(a, b);
  b.erase(static_cast<ProcessId>(n - 1));
  EXPECT_NE(a.compare(b), 0);
  EXPECT_EQ(a.compare(b) < 0, b.compare(a) > 0);
}

TEST_P(ProcessSetWordBoundary, EncodeDecodeRoundTripAtBoundary) {
  const std::size_t n = GetParam();
  ProcessSet original(n);
  for (ProcessId p = 0; p < n; p += 3) original.insert(p);
  original.insert(static_cast<ProcessId>(n - 1));
  Encoder enc;
  original.encode(enc);
  Decoder dec(enc.bytes());
  const ProcessSet decoded = ProcessSet::decode(dec, n);
  dec.finish();
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(decoded.members(), original.members());
}

TEST_P(ProcessSetWordBoundary, MovedFromSetIsReusable) {
  const std::size_t n = GetParam();
  ProcessSet source = ProcessSet::full(n);
  const ProcessSet copy = source;
  ProcessSet moved = std::move(source);
  EXPECT_EQ(moved, copy);
  source = ProcessSet(n, {1});
  EXPECT_EQ(source.count(), 1u);
  EXPECT_TRUE(source.contains(1));
  EXPECT_EQ(moved, copy);
}

}  // namespace
}  // namespace dynvote
