// Directed scenarios for YKD -- including the thesis's Figure 3-1 scenario,
// the two-round formation schedule, dynamic-voting chains, session
// learning, and the storage optimization.
#include <gtest/gtest.h>

#include "core/ykd.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

using test::all_cross;
using test::all_in_primary;
using test::no_cross;
using test::settle;

TEST(Ykd, FormsPrimaryInExactlyTwoMessageRounds) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  gcs.step_round();  // round 1 sent
  gcs.step_round();  // round 1 delivered, round 2 sent
  EXPECT_FALSE(gcs.has_primary());
  gcs.step_round();  // round 2 delivered
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));
}

TEST(Ykd, DynamicVotingChainsThroughRepeatedPartitions) {
  // 8 -> 5 -> 3 -> 2: each step keeps a majority of the previous primary,
  // not of the original 8.  The final primary {0,1} is only a quarter of
  // the initial view -- impossible for simple majority, routine for
  // dynamic voting.
  Gcs gcs(AlgorithmKind::kYkd, 8);
  gcs.apply_partition(0, ProcessSet(8, {5, 6, 7}));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(8, {0, 1, 2, 3, 4})));

  gcs.apply_partition(0, ProcessSet(8, {3, 4}));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(8, {0, 1, 2})));

  const std::size_t c012 = gcs.topology().component_of(0);
  gcs.apply_partition(c012, ProcessSet(8, {2}));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(8, {0, 1})));
  EXPECT_EQ(test::primary_member_count(gcs), 2u);
}

TEST(Ykd, MinoritySideOfThePreviousPrimaryCannotForm) {
  Gcs gcs(AlgorithmKind::kYkd, 8);
  gcs.apply_partition(0, ProcessSet(8, {5, 6, 7}));
  settle(gcs);  // primary {0..4}
  // {5,6,7} merging with nothing new: still no quorum of {0..4}.
  gcs.apply_partition(1, ProcessSet(8, {7}));
  settle(gcs);
  EXPECT_FALSE(gcs.algorithm(5).in_primary());
  EXPECT_FALSE(gcs.algorithm(7).in_primary());
}

TEST(Ykd, ExactHalfOfPreviousPrimaryUsesLexicalTieBreak) {
  Gcs gcs(AlgorithmKind::kYkd, 4);
  // Split the initial primary {0,1,2,3} exactly in half.
  gcs.apply_partition(0, ProcessSet(4, {1, 3}));
  settle(gcs);
  // {0,2} holds the lexically smallest member of {0,1,2,3}: it may form.
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(4, {0, 2})));
  EXPECT_FALSE(gcs.algorithm(1).in_primary());
}

// The thesis Figure 3-1 scenario, scripted end to end.
TEST(Ykd, Figure31InterruptedAttemptAvoidsSplitBrain) {
  Gcs gcs(AlgorithmKind::kYkd, 5);

  // Partition {a,b,c} | {d,e}; interrupt {a,b,c}'s formation while the
  // attempt messages are in flight.
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  gcs.step_round();  // states sent
  gcs.step_round();  // states delivered; attempts sent (in flight)

  // c detaches; its attempt escaped to a,b but theirs never reached c.
  const std::size_t abc = gcs.topology().component_of(0);
  gcs.apply_partition(abc, ProcessSet(5, {2}),
                      [](ProcessId sender) { return sender == 2; });

  settle(gcs);
  // a,b completed {a,b,c} during the flush and then formed {a,b}.
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1})));
  // c holds the ambiguous session.
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 1u);
  EXPECT_FALSE(gcs.algorithm(2).in_primary());

  // {c,d,e} is a majority of the original five -- the naive rule would
  // form it and split the brain.  YKD refuses.
  gcs.apply_merge(gcs.topology().component_of(2),
                  gcs.topology().component_of(3));
  settle(gcs);
  EXPECT_FALSE(gcs.algorithm(2).in_primary());
  EXPECT_FALSE(gcs.algorithm(3).in_primary());
  EXPECT_EQ(test::primary_member_count(gcs), 2u);  // only {a,b}

  // Reunion: c LEARNs {a,b,c} was formed, adopts it, everything resolves.
  gcs.apply_merge(0, 1);
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(5)));
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 0u);
}

TEST(Ykd, UnresolvedAmbiguousSessionConstrainsButDoesNotBlock) {
  // Unlike 1-pending, YKD pipelines new attempts past a pending session as
  // long as the new view is a subquorum of it.
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  settle(gcs);  // primary {0,1,2,3}

  // Rejoin process 4 and interrupt the full view's formation attempt.
  gcs.apply_merge(0, 1);
  gcs.step_round();
  gcs.step_round();  // attempts for {0..4} in flight
  gcs.apply_partition(0, ProcessSet(5, {4}), no_cross());
  settle(gcs);

  // {0,1,2,3} holds {0,1,2,3,4} as ambiguous (it cannot resolve it:
  // process 4 is unreachable and might have formed it).  It is a subquorum
  // of the pending session (4 of 5) and of its own last primary, so YKD
  // forms a new primary anyway.
  EXPECT_GE(gcs.algorithm(0).debug_info().session_number, 2u);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));
}

TEST(Ykd, LearnDeletesProvablyUnformedSessions) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  gcs.step_round();
  gcs.step_round();
  // {2} detaches with no cross-delivery: nobody formed {0,1,2}; both sides
  // hold it as ambiguous.
  gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(5, {2}),
                      no_cross());
  EXPECT_GE(gcs.algorithm(2).debug_info().ambiguous_count, 1u);

  // Reunite {0,1} and {2}: every member of the ambiguous session is now
  // present and none formed it, so LEARN deletes it everywhere.
  gcs.apply_merge(gcs.topology().component_of(0),
                  gcs.topology().component_of(2));
  settle(gcs);
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 0u);
  EXPECT_EQ(gcs.algorithm(2).debug_info().ambiguous_count, 0u);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2})));
}

TEST(Ykd, UnoptimizedRetainsMoreButDecidesTheSame) {
  // Drive both variants through the identical interrupted-attempt history
  // and compare: same availability decisions, different retained state.
  const auto drive = [](AlgorithmKind kind) {
    Gcs gcs(kind, 5);
    gcs.apply_partition(0, ProcessSet(5, {3, 4}));
    gcs.step_round();
    gcs.step_round();
    gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(5, {2}),
                        [](ProcessId) { return false; });
    // settle both sides
    while (gcs.step_round()) {
    }
    return gcs.algorithm(2).debug_info().ambiguous_count;
  };
  // Both retain the interrupted session at process 2 (it cannot resolve it
  // alone); the variants agree here.
  EXPECT_EQ(drive(AlgorithmKind::kYkd), 1u);
  EXPECT_EQ(drive(AlgorithmKind::kYkdUnoptimized), 1u);
}

TEST(Ykd, SingletonComponentCanChainDownToOneProcess) {
  Gcs gcs(AlgorithmKind::kYkd, 2);
  gcs.apply_partition(0, ProcessSet(2, {1}));
  settle(gcs);
  // {0} is half of {0,1} including the lexically smallest: it forms alone.
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  EXPECT_FALSE(gcs.algorithm(1).in_primary());
}

TEST(Ykd, StaleViewPayloadsAreIgnored) {
  const View initial{1, ProcessSet::full(3)};
  Ykd alg(0, initial);
  alg.view_changed(View{5, ProcessSet(3, {0, 1})});

  auto stale = make_payload<StateExchangePayload>();
  stale->view_id = 4;  // previous view
  stale->last_primary = Session{0, ProcessSet::full(3)};
  stale->last_formed.assign(3, Session{0, ProcessSet::full(3)});
  Message m;
  m.protocol = stale;
  (void)alg.incoming_message(std::move(m), 1);
  // Nothing acted on: the algorithm still wants to send its own state and
  // has formed nothing.
  EXPECT_FALSE(alg.in_primary());
}

TEST(Ykd, AppDataPassesThroughUntouched) {
  const View initial{1, ProcessSet::full(3)};
  Ykd alg(0, initial);
  alg.view_changed(View{2, ProcessSet(3, {0, 1})});

  // Outgoing: the app payload is preserved when state is piggybacked.
  const auto out = alg.outgoing_message_poll(Message::from_text("payload"));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->app_data, Message::from_text("payload").app_data);
  ASSERT_TRUE(out->has_protocol());

  // Incoming: the protocol part is stripped before the app sees it.
  const Message in = alg.incoming_message(*out, 0);
  EXPECT_EQ(in.app_data, Message::from_text("payload").app_data);
  EXPECT_FALSE(in.has_protocol());
}

TEST(Ykd, PollReturnsNothingWhenIdle) {
  const View initial{1, ProcessSet::full(3)};
  Ykd alg(0, initial);
  EXPECT_EQ(alg.outgoing_message_poll(Message::empty()), std::nullopt);
}

}  // namespace
}  // namespace dynvote
