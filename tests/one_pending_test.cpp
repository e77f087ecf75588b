// 1-pending: blocking on an unresolved ambiguous session, and the
// worst-case need to hear from every member before resolving it.
#include <gtest/gtest.h>

#include "core/one_pending.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

using test::all_in_primary;
using test::no_cross;
using test::settle;

// Build the canonical blocked state: primary {0,1,2,3} exists, then the
// full view's formation attempt is interrupted with process 4 detaching,
// leaving {0,1,2,3} pending on {0,1,2,3,4}.
Gcs blocked_gcs(AlgorithmKind kind) {
  Gcs gcs(kind, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  while (gcs.step_round()) {
  }
  gcs.apply_merge(0, 1);
  gcs.step_round();
  gcs.step_round();  // attempts for {0..4} in flight
  gcs.apply_partition(0, ProcessSet(5, {4}), [](ProcessId) { return false; });
  while (gcs.step_round()) {
  }
  return gcs;
}

TEST(OnePending, BlocksWhereYkdPipelines) {
  // Identical history; YKD forms a new primary, 1-pending blocks because
  // the pending session {0..4} cannot be resolved without process 4.
  Gcs ykd = blocked_gcs(AlgorithmKind::kYkd);
  EXPECT_TRUE(all_in_primary(ykd, ProcessSet(5, {0, 1, 2, 3})));

  // The refusal is part of the view's shared verdict, which whichever member
  // completes the exchange first computes; every member must record it.
  Gcs op = blocked_gcs(AlgorithmKind::kOnePending);
  ProcessSet(5, {0, 1, 2, 3}).for_each([&](ProcessId p) {
    SCOPED_TRACE(p);
    EXPECT_FALSE(op.algorithm(p).in_primary());
    EXPECT_TRUE(op.algorithm(p).debug_info().blocked);
    EXPECT_EQ(op.algorithm(p).debug_info().ambiguous_count, 1u);
  });
}

TEST(OnePending, ResolvesWhenTheLastMemberReturns) {
  Gcs gcs = blocked_gcs(AlgorithmKind::kOnePending);
  // Process 4 returns: every member of the pending session is present,
  // none formed it, so it resolves and the full view forms.
  gcs.apply_merge(0, 1);
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(5)));
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 0u);
}

TEST(OnePending, ResolvesViaAWitnessOfTheFormation) {
  // The pending session CAN be resolved without full attendance when some
  // process witnessed its formation.
  Gcs gcs(AlgorithmKind::kOnePending, 5);
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  gcs.step_round();
  gcs.step_round();  // attempts for {0,1,2} in flight
  // 2 detaches; its attempt crosses, so {0,1} forms {0,1,2} while 2 holds
  // it pending.
  gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(5, {2}),
                      [](ProcessId sender) { return sender == 2; });
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1})));
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 1u);

  // 2 rejoins 0 and 1: they report {0,1,2} formed (lastFormed(2) = that
  // session); 2 adopts it and the group forms {0,1,2}.
  gcs.apply_merge(gcs.topology().component_of(0),
                  gcs.topology().component_of(2));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2})));
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 0u);
}

TEST(OnePending, NeverHoldsMoreThanOneAmbiguousSession) {
  // Through an adversarial little history, the pending count stays <= 1.
  Gcs gcs(AlgorithmKind::kOnePending, 6);
  const auto max_pending = [&]() {
    std::size_t m = 0;
    for (ProcessId p = 0; p < 6; ++p) {
      m = std::max(m, gcs.algorithm(p).debug_info().ambiguous_count);
    }
    return m;
  };

  gcs.apply_partition(0, ProcessSet(6, {5}));
  gcs.step_round();
  gcs.step_round();
  EXPECT_LE(max_pending(), 1u);
  gcs.apply_partition(0, ProcessSet(6, {3, 4}), no_cross());
  gcs.step_round();
  gcs.step_round();
  EXPECT_LE(max_pending(), 1u);
  gcs.apply_merge(0, 1);
  gcs.step_round();
  EXPECT_LE(max_pending(), 1u);
  settle(gcs);
  EXPECT_LE(max_pending(), 1u);
}

TEST(OnePending, OneBlockedMemberBlocksTheWholeView) {
  // The decision is group-wide and deterministic: if any member's pending
  // session is unresolved, nobody attempts (formation needs everyone).
  Gcs gcs = blocked_gcs(AlgorithmKind::kOnePending);
  // Merge the blocked {0,1,2,3} with nobody new -- wait, instead check
  // that even after more rounds nothing ever forms.
  for (int i = 0; i < 10; ++i) gcs.step_round();
  EXPECT_EQ(test::primary_member_count(gcs), 0u);
}

}  // namespace
}  // namespace dynvote
