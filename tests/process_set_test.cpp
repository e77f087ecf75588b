#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <utility>

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
  for (std::size_t n : {1u, 5u, 63u, 64u, 65u, 128u, 200u}) {
    const ProcessSet s = ProcessSet::full(n);
    EXPECT_EQ(s.count(), n) << "n=" << n;
    EXPECT_TRUE(s.contains(static_cast<ProcessId>(n - 1)));
    EXPECT_FALSE(s.contains(static_cast<ProcessId>(n)));
    EXPECT_EQ(s.lowest(), 0u);
  }
}

TEST(ProcessSet, LowestFindsFirstMemberAcrossWords) {
  ProcessSet s(200);
  s.insert(130);
  s.insert(77);
  EXPECT_EQ(s.lowest(), 77u);
  s.insert(3);
  EXPECT_EQ(s.lowest(), 3u);
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
  const ProcessSet s(130, {0, 63, 64, 65, 129});
  EXPECT_EQ(s.members(), (std::vector<ProcessId>{0, 63, 64, 65, 129}));
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
  const ProcessSet original(130, {0, 63, 64, 65, 129});
  Encoder enc;
  original.encode(enc);
  Decoder dec(enc.bytes());
  EXPECT_EQ(ProcessSet::decode(dec, 130), original);
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
       {std::pair<std::size_t, std::size_t>{200, 4}, {4, 200}, {64, 65}}) {
    SCOPED_TRACE(std::to_string(encoded) + " into " + std::to_string(expected));
    Encoder enc;
    ProcessSet(encoded, {0, 3}).encode(enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(ProcessSet::decode(dec, expected), DecodeError);
  }
}

// The small-buffer boundary: universes up to kInlineWords * 64 = 128 ids
// live entirely in the inline words; 129 is the first universe that spills
// to the heap vector.  Everything observable -- algebra, compare, hash,
// wire bytes -- must behave identically on both sides of the boundary.
class ProcessSetSboBoundary : public testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Universes, ProcessSetSboBoundary,
                         testing::Values(64u, 65u, 128u, 129u));

TEST_P(ProcessSetSboBoundary, AlgebraAtBoundary) {
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

TEST_P(ProcessSetSboBoundary, CompareAndHashAtBoundary) {
  const std::size_t n = GetParam();
  const ProcessSet a(n, {0, static_cast<ProcessId>(n - 1)});
  ProcessSet b(n);
  b.insert(0);
  b.insert(static_cast<ProcessId>(n - 1));
  EXPECT_EQ(a.compare(b), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.erase(static_cast<ProcessId>(n - 1));
  EXPECT_NE(a.compare(b), 0);
  EXPECT_EQ(a.compare(b) < 0, b.compare(a) > 0);
}

TEST_P(ProcessSetSboBoundary, EncodeDecodeRoundTripAtBoundary) {
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
  EXPECT_EQ(decoded.hash(), original.hash());
  EXPECT_EQ(decoded.members(), original.members());
}

TEST_P(ProcessSetSboBoundary, MovedFromSetIsEmptyAndReusable) {
  const std::size_t n = GetParam();
  ProcessSet source = ProcessSet::full(n);
  const ProcessSet copy = source;
  ProcessSet moved = std::move(source);
  EXPECT_EQ(moved, copy);
  // The move constructor documents a reset source: no stale inline words
  // may survive to alias the next value assigned into it.
  EXPECT_EQ(source.count(), 0u);  // NOLINT(bugprone-use-after-move)
  source = ProcessSet(n, {1});
  EXPECT_EQ(source.count(), 1u);
  EXPECT_TRUE(source.contains(1));
  EXPECT_EQ(moved, copy);
}

TEST(ProcessSet, HashDistinguishesAndIsStable) {
  const ProcessSet a(64, {1, 2, 3});
  ProcessSet b(64, {1, 2});
  EXPECT_EQ(a.hash(), ProcessSet(64, {1, 2, 3}).hash());
  b.insert(3);
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<ProcessSet> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
}

}  // namespace
}  // namespace dynvote
