// The dynamic-linear-voting quorum rules, including a parameterized sweep
// over system sizes verifying the properties the algorithms' safety rests
// on: two subquorums of the same set always intersect.
#include <gtest/gtest.h>

#include "core/quorum.hpp"
#include "core/session.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

TEST(Quorum, StrictMajority) {
  const ProcessSet of(6, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(is_majority_of(ProcessSet(6, {0, 1, 2, 3}), of));
  EXPECT_FALSE(is_majority_of(ProcessSet(6, {0, 1, 2}), of));  // exactly half
  EXPECT_FALSE(is_majority_of(ProcessSet(6, {0, 1}), of));
}

TEST(Quorum, SubquorumMajorityAlwaysQualifies) {
  const ProcessSet of(5, {0, 1, 2, 3, 4});
  EXPECT_TRUE(is_subquorum(ProcessSet(5, {0, 1, 2}), of));
  EXPECT_FALSE(is_subquorum(ProcessSet(5, {0, 1}), of));
}

TEST(Quorum, ExactHalfNeedsTheLexicallySmallestMember) {
  const ProcessSet of(6, {1, 2, 3, 4});
  // Half of {1,2,3,4} is two members; 1 is the lexically smallest.
  EXPECT_TRUE(is_subquorum(ProcessSet(6, {1, 2}), of));
  EXPECT_TRUE(is_subquorum(ProcessSet(6, {1, 4}), of));
  EXPECT_FALSE(is_subquorum(ProcessSet(6, {2, 3}), of));
  EXPECT_FALSE(is_subquorum(ProcessSet(6, {3, 4}), of));
}

TEST(Quorum, CandidateMayContainOutsiders) {
  const ProcessSet of(8, {0, 1, 2});
  // Outsiders neither help nor hurt; only the intersection counts.
  EXPECT_TRUE(is_subquorum(ProcessSet(8, {0, 1, 6, 7}), of));
  EXPECT_FALSE(is_subquorum(ProcessSet(8, {2, 6, 7}), of));
}

TEST(Quorum, SingletonSet) {
  const ProcessSet of(4, {2});
  EXPECT_TRUE(is_subquorum(ProcessSet(4, {2}), of));
  EXPECT_FALSE(is_subquorum(ProcessSet(4, {1}), of));
}

TEST(Quorum, EmptyReferenceSetThrows) {
  EXPECT_THROW((void)is_subquorum(ProcessSet(4, {1}), ProcessSet(4)),
               PreconditionViolation);
}

// --- property sweep: any two subquorums of the same set intersect ---

class SubquorumIntersection : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SubquorumIntersection, RandomSubquorumsAlwaysIntersect) {
  const std::size_t n = GetParam();
  Rng rng = Rng::from_raw_seed(0xABCD + n);
  const ProcessSet of = ProcessSet::full(n);

  const auto random_subset = [&]() {
    ProcessSet s(n);
    for (ProcessId p = 0; p < n; ++p) {
      if (rng.chance(0.5)) s.insert(p);
    }
    return s;
  };

  int found_pairs = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const ProcessSet a = random_subset();
    const ProcessSet b = random_subset();
    if (is_subquorum(a, of) && is_subquorum(b, of)) {
      ++found_pairs;
      EXPECT_TRUE(a.intersects(b))
          << "disjoint subquorums of full(" << n << "): " << a.to_string()
          << " and " << b.to_string();
    }
  }
  EXPECT_GT(found_pairs, 0) << "sweep exercised nothing at n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SubquorumIntersection,
                         ::testing::Values(2, 3, 4, 5, 8, 16, 33, 64));

TEST(Session, OrderingByNumberThenMembers) {
  const Session a{1, ProcessSet(4, {0, 1})};
  const Session b{2, ProcessSet(4, {0})};
  const Session c{2, ProcessSet(4, {1})};
  EXPECT_TRUE(session_precedes(a, b));
  EXPECT_FALSE(session_precedes(b, a));
  // Same number: ordered deterministically, antisymmetrically.
  EXPECT_NE(session_precedes(b, c), session_precedes(c, b));
  EXPECT_FALSE(session_precedes(b, b));
}

TEST(Session, ToStringIsReadable) {
  const Session s{7, ProcessSet(4, {1, 3})};
  EXPECT_EQ(s.to_string(), "session#7{1,3}");
}

}  // namespace
}  // namespace dynvote
