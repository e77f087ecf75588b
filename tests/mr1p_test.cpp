// MR1p: the two-round fast path, the five-round resolution path, and the
// majority-resilience that distinguishes it from 1-pending.
#include <gtest/gtest.h>

#include "core/mr1p.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

using test::all_in_primary;
using test::no_cross;
using test::settle;

Gcs::AlgorithmFactory mr1p_factory(Mr1pOptions options) {
  return [options](ProcessId self, const View& initial) {
    return std::make_unique<Mr1p>(self, initial, options);
  };
}

TEST(Mr1p, NoPendingPathFormsInTwoMessageRounds) {
  Gcs gcs(AlgorithmKind::kMr1p, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  gcs.step_round();  // <V,1> proposals sent
  gcs.step_round();  // proposals delivered, attempts sent
  EXPECT_FALSE(gcs.has_primary());
  gcs.step_round();  // attempts delivered: formed
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));
}

// Interrupt a formation so that {0,1,2,3} is left pending on {0..4} while
// process 4 detaches.  `rounds_before_cut` positions the interruption at
// the protocol stage where the algorithm has just staked its pending
// session: 1 round for MR1p (<V,1> proposals in flight, status "sent"),
// 2 rounds for the YKD family (attempt messages in flight).
Gcs interrupted_pending(AlgorithmKind kind, int rounds_before_cut) {
  Gcs gcs(kind, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  while (gcs.step_round()) {
  }
  gcs.apply_merge(0, 1);
  for (int i = 0; i < rounds_before_cut; ++i) gcs.step_round();
  gcs.apply_partition(0, ProcessSet(5, {4}), [](ProcessId) { return false; });
  return gcs;
}

TEST(Mr1p, ResolvesSentStatusPendingWithOnlyAMajority) {
  // 1-pending needs ALL members of the pending session; MR1p resolves with
  // a majority when the attempt provably never reached the attempt stage.
  Gcs gcs = interrupted_pending(AlgorithmKind::kMr1p, 1);
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 1u);
  settle(gcs);
  // {0,1,2,3} (a majority of {0..4}) resolved the pending session as
  // try-fail and went on to form a primary.
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));

  // 1-pending holding the analogous pending session stays blocked.
  Gcs op = interrupted_pending(AlgorithmKind::kOnePending, 2);
  EXPECT_EQ(op.algorithm(0).debug_info().ambiguous_count, 1u);
  while (op.step_round()) {
  }
  EXPECT_EQ(test::primary_member_count(op), 0u);
}

TEST(Mr1p, MinorityCannotResolveItsPending) {
  Gcs gcs(AlgorithmKind::kMr1p, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  while (gcs.step_round()) {
  }
  gcs.apply_merge(0, 1);
  gcs.step_round();  // proposals in flight
  // Now a 2/3 split: {0,1} detaches -- a minority of the pending {0..4}.
  gcs.apply_partition(0, ProcessSet(5, {0, 1}), no_cross());
  settle(gcs);
  EXPECT_FALSE(gcs.algorithm(0).in_primary());
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 1u);
  EXPECT_TRUE(gcs.algorithm(0).debug_info().blocked);
}

// Put {0,1,2} into the attempt stage of {0..4} without any attempt message
// ever being multicast: interrupt at propose-in-flight, with the proposals
// from the detaching {3,4} crossing into the surviving side.  {0,1,2} then
// sees all five proposals during the flush, advances to status=attempt --
// and its staged attempt multicast dies with the view change.
Gcs interrupted_at_attempt_stage(Mr1pOptions options) {
  Gcs gcs(mr1p_factory(options), 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  while (gcs.step_round()) {
  }
  gcs.apply_merge(0, 1);
  gcs.step_round();  // proposals for {0..4} in flight
  gcs.apply_partition(0, ProcessSet(5, {3, 4}),
                      [](ProcessId sender) { return sender >= 3; });
  while (gcs.step_round()) {
  }
  return gcs;
}

TEST(Mr1p, ConservativePolicyStallsOnAttemptStageEcho) {
  // Conservative: {0,1,2}'s best echo is "attempt" and members 3,4 are
  // unreachable; the session cannot be proven dead -> blocked.
  Gcs conservative = interrupted_at_attempt_stage(
      Mr1pOptions{Mr1pResolutionPolicy::kConservative});
  EXPECT_FALSE(conservative.algorithm(0).in_primary());
  EXPECT_TRUE(conservative.algorithm(0).debug_info().blocked);

  // Adopt-on-attempt: treats {0..4} as formed, adopts it as cur_primary,
  // and {0,1,2} -- a subquorum of it -- forms a fresh primary.
  Gcs liberal = interrupted_at_attempt_stage(
      Mr1pOptions{Mr1pResolutionPolicy::kAdoptOnAttempt});
  EXPECT_TRUE(liberal.algorithm(0).in_primary());
}

TEST(Mr1p, ConservativeResolvesAttemptEchoWithFullPresence) {
  // Same interruption, but everyone reunites: full presence proves the
  // attempt never formed, even under the conservative policy.
  Gcs gcs = interrupted_at_attempt_stage(
      Mr1pOptions{Mr1pResolutionPolicy::kConservative});
  gcs.apply_merge(0, 1);
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(5)));
}

TEST(Mr1p, LearnsFormationFromAWitness) {
  // {0,1} completes {0,1,2} thanks to a crossed attempt; 2 holds it
  // pending, then rejoins and learns it formed.
  Gcs gcs(AlgorithmKind::kMr1p, 5);
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  gcs.step_round();  // proposals
  gcs.step_round();  // attempts in flight
  gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(5, {2}),
                      [](ProcessId sender) { return sender == 2; });
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1})));
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 1u);

  gcs.apply_merge(gcs.topology().component_of(0),
                  gcs.topology().component_of(2));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2})));
}

TEST(Mr1p, StaleCurPrimaryRecoversOnFullReunion) {
  Gcs gcs(AlgorithmKind::kMr1p, 6);
  gcs.apply_partition(0, ProcessSet(6, {5}));
  settle(gcs);  // {0..4} forms; 5 is behind with cur_primary = initial view
  gcs.apply_partition(0, ProcessSet(6, {3, 4}));
  settle(gcs);  // {0,1,2} forms
  gcs.apply_merge(0, 1);
  gcs.apply_merge(0, 1);
  settle(gcs);  // everyone back together
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(6)));
}

TEST(Mr1p, FormedViewsGcOnFullViewFormation) {
  // After a full-view primary forms, the formedViews log is reset to just
  // that view (the thesis's optimization for long executions).
  Gcs gcs(AlgorithmKind::kMr1p, 4);
  gcs.apply_partition(0, ProcessSet(4, {3}));
  settle(gcs);
  gcs.apply_merge(0, 1);
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(4)));
  // Behavioral check: a long merge/partition churn does not accumulate
  // unbounded formedViews (exercised further by the soak test); here we
  // simply assert the system stays correct through repeated full reunions.
  for (int i = 0; i < 5; ++i) {
    gcs.apply_partition(0, ProcessSet(4, {2, 3}));
    settle(gcs);
    gcs.apply_merge(0, 1);
    settle(gcs);
    EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(4)));
  }
}

}  // namespace
}  // namespace dynvote
