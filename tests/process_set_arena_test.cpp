// ProcessSet's spill path under the freelist arena, probed exactly at the
// SBO boundary: N=128 is the last inline universe, N=129 the first spilled
// one, and N=256/257 the two-words-past cases the zero-alloc guarantee
// ends at.
// Verifies the set algebra and the wire format are representation-blind,
// and that warmed-up spill churn performs zero heap allocations (the
// counting allocator is linked).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/process_set.hpp"
#include "util/alloc_stats.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

const std::size_t kBoundaryUniverses[] = {128, 129, 256, 257};

/// Every third id starting at the universe tail, so multi-word masks get
/// non-trivial bits in every word including the partial tail word.
ProcessSet striped(std::size_t universe, std::size_t phase) {
  ProcessSet s(universe);
  for (std::size_t id = phase; id < universe; id += 3) {
    s.insert(static_cast<ProcessId>(id));
  }
  return s;
}

TEST(ProcessSetArena, AlgebraRoundTripsAcrossTheSboBoundary) {
  for (const std::size_t n : kBoundaryUniverses) {
    SCOPED_TRACE("universe " + std::to_string(n));
    const ProcessSet a = striped(n, 0);
    const ProcessSet b = striped(n, 1);
    const ProcessSet everyone = ProcessSet::full(n);

    // intersect/minus/count round-trip: a == (a ∩ x) ∪ (a \ x) for any x,
    // and the two parts partition a's count.
    const ProcessSet inter = a.intersected_with(b);
    const ProcessSet diff = a.minus(b);
    EXPECT_EQ(inter.united_with(diff), a);
    EXPECT_EQ(inter.count() + diff.count(), a.count());
    EXPECT_EQ(inter.count(), a.intersection_count(b));
    EXPECT_TRUE(inter.intersects(a) || inter.empty());

    // Striped phases are disjoint; together with phase 2 they tile the
    // universe.
    EXPECT_EQ(a.intersection_count(b), 0u);
    EXPECT_EQ(a.united_with(b).united_with(striped(n, 2)), everyone);

    // Complement arithmetic touches the partial tail word.
    const ProcessSet not_a = everyone.minus(a);
    EXPECT_EQ(not_a.count(), n - a.count());
    EXPECT_FALSE(not_a.intersects(a));
    EXPECT_TRUE(a.is_subset_of(everyone));
    EXPECT_EQ(everyone.minus(not_a), a);
  }
}

TEST(ProcessSetArena, EncodeDecodeRoundTripsAcrossTheSboBoundary) {
  for (const std::size_t n : kBoundaryUniverses) {
    SCOPED_TRACE("universe " + std::to_string(n));
    const ProcessSet original = striped(n, 2);
    Encoder enc;
    original.encode(enc);
    Decoder dec(enc.bytes());
    const ProcessSet restored = ProcessSet::decode(dec);
    EXPECT_EQ(restored, original);
    EXPECT_EQ(restored.universe_size(), n);
    EXPECT_EQ(restored.hash(), original.hash());
    EXPECT_EQ(restored.compare(original), 0);
  }
}

TEST(ProcessSetArena, SpilledSetsOrderAndCompareLikeInlineOnes) {
  // compare() is the session tie-break; it must give the same verdicts
  // whether the words live inline or in the arena.
  for (const std::size_t n : kBoundaryUniverses) {
    SCOPED_TRACE("universe " + std::to_string(n));
    ProcessSet lo(n, {0});
    ProcessSet hi(n, {static_cast<ProcessId>(n - 1)});
    EXPECT_NE(lo.compare(hi), 0);
    EXPECT_EQ(lo.compare(hi) < 0, hi.compare(lo) > 0);
    EXPECT_EQ(lo.compare(lo), 0);
  }
}

TEST(ProcessSetArena, WarmSpillChurnIsAllocationFree) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }

  constexpr std::size_t kN = 257;  // three words, partial tail
  const ProcessSet a = striped(kN, 0);
  const ProcessSet b = striped(kN, 1);
  const ProcessSet everyone = ProcessSet::full(kN);

  // Warm-up: populate the arena freelists for the spill size class.
  for (int i = 0; i < 16; ++i) {
    ProcessSet scratch = a.united_with(b);
    scratch = scratch.intersected_with(everyone);
    scratch = everyone.minus(scratch);
  }

  const std::uint64_t before = thread_allocations();
  std::size_t checksum = 0;
  for (int i = 0; i < 1000; ++i) {
    ProcessSet u = a.united_with(b);
    ProcessSet inv = everyone.minus(u);
    checksum += u.intersection_count(everyone) + inv.count();
  }
  const std::uint64_t allocs = thread_allocations() - before;
  EXPECT_GT(checksum, 0u);
  EXPECT_EQ(allocs, 0u)
      << "warmed-up spill-path algebra at N=" << kN << " allocated " << allocs
      << " times; the arena is supposed to absorb all spill churn";
}

}  // namespace
}  // namespace dynvote
