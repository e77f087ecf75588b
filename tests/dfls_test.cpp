// DFLS: the extra garbage-collection round and its availability cost.
#include <gtest/gtest.h>

#include "core/dfls.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

using test::all_in_primary;
using test::no_cross;
using test::settle;

TEST(Dfls, FormationTakesThreeRoundsToShedAmbiguousSessions) {
  Gcs gcs(AlgorithmKind::kDfls, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  gcs.step_round();  // states sent
  gcs.step_round();  // states delivered, attempts sent
  gcs.step_round();  // attempts delivered: PRIMARY formed...
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));
  // ...but the attempt session is still held as ambiguous until the GC
  // round completes.
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 1u);
  gcs.step_round();  // GC round delivered
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 0u);
}

TEST(Dfls, InterruptedGcRoundRetainsAmbiguousSessions) {
  Gcs gcs(AlgorithmKind::kDfls, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  gcs.step_round();
  gcs.step_round();
  gcs.step_round();  // primary {0,1,2,3} formed; GC messages in flight
  // A change hits before the GC round lands: sessions stay.
  gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(5, {3}),
                      no_cross());
  EXPECT_EQ(gcs.algorithm(0).debug_info().ambiguous_count, 1u);
  settle(gcs);
  // The retained session {0,1,2,3} constrains the next formation; {0,1,2}
  // is a subquorum of it (3 of 4), so the formation still succeeds here.
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2})));
}

TEST(Dfls, YkdDeletesImmediatelyWhereDflsWaits) {
  const auto ambiguous_right_after_formation = [](AlgorithmKind kind) {
    Gcs gcs(kind, 4);
    gcs.apply_partition(0, ProcessSet(4, {3}));
    gcs.step_round();
    gcs.step_round();
    gcs.step_round();  // formation completes here for both
    EXPECT_TRUE(gcs.algorithm(0).in_primary());
    return gcs.algorithm(0).debug_info().ambiguous_count;
  };
  EXPECT_EQ(ambiguous_right_after_formation(AlgorithmKind::kYkd), 0u);
  EXPECT_EQ(ambiguous_right_after_formation(AlgorithmKind::kDfls), 1u);
}

TEST(Dfls, RetainedSessionCanRefuseAPrimaryYkdWouldForm) {
  // The source of the thesis's ~3% gap: a session retained only because
  // DFLS's GC round was interrupted constrains a later decision.
  const auto drive = [](AlgorithmKind kind) {
    Gcs gcs(kind, 8);
    // Form primary {0..5} (6 of 8).
    gcs.apply_partition(0, ProcessSet(8, {6, 7}));
    settle(gcs);
    EXPECT_TRUE(gcs.algorithm(0).in_primary());

    // Interrupt the *next* formation attempt of {0..5} after re-forming:
    // split {0,1,2} mid-GC so DFLS still holds {0..5} (and older sessions)
    // as ambiguous.
    gcs.apply_partition(0, ProcessSet(8, {3, 4, 5}),
                        [](ProcessId) { return false; });
    // {0,1,2} is a subquorum of {0..5} (3 of 6 with lexical smallest 0).
    while (gcs.step_round()) {
    }
    return gcs.algorithm(0).in_primary();
  };
  // Both should form {0,1,2} in this benign case -- the scenario exercises
  // the code path; statistical gaps are measured by the benches.
  EXPECT_TRUE(drive(AlgorithmKind::kYkd));
  EXPECT_TRUE(drive(AlgorithmKind::kDfls));
}

TEST(Dfls, GcRoundFromWrongFormationIsIgnored) {
  const View initial{1, ProcessSet::full(3)};
  Dfls alg(0, initial);
  alg.view_changed(View{2, ProcessSet(3, {0, 1})});

  Message m;
  auto gc = make_payload<GcRoundPayload>();
  gc->view_id = 2;
  gc->formed_number = 999;  // no such formation
  m.protocol = gc;
  (void)alg.incoming_message(std::move(m), 1);
  EXPECT_FALSE(alg.in_primary());  // nothing formed, nothing crashed
}

}  // namespace
}  // namespace dynvote
