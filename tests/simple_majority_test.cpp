#include <gtest/gtest.h>

#include "core/simple_majority.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

TEST(SimpleMajority, PrimaryIffQuorumOfInitialView) {
  const View initial{1, ProcessSet::full(7)};
  SimpleMajority alg(0, initial);
  EXPECT_TRUE(alg.in_primary());

  alg.view_changed(View{2, ProcessSet(7, {0, 1, 2, 3})});
  EXPECT_TRUE(alg.in_primary());  // 4 of 7

  alg.view_changed(View{3, ProcessSet(7, {0, 1, 2})});
  EXPECT_FALSE(alg.in_primary());  // 3 of 7
}

TEST(SimpleMajority, ExactHalfUsesLexicalTieBreak) {
  const View initial{1, ProcessSet::full(4)};
  SimpleMajority with_lowest(0, initial);
  with_lowest.view_changed(View{2, ProcessSet(4, {0, 3})});
  EXPECT_TRUE(with_lowest.in_primary());  // half including process 0

  SimpleMajority without_lowest(1, initial);
  without_lowest.view_changed(View{2, ProcessSet(4, {1, 2})});
  EXPECT_FALSE(without_lowest.in_primary());
}

TEST(SimpleMajority, NeverPiggybacksAnything) {
  const View initial{1, ProcessSet::full(3)};
  SimpleMajority alg(0, initial);
  EXPECT_EQ(alg.outgoing_message_poll(Message::from_text("app")), std::nullopt);
}

TEST(SimpleMajority, StripsForeignProtocolPayloads) {
  const View initial{1, ProcessSet::full(3)};
  SimpleMajority alg(0, initial);
  Message m = Message::from_text("data");
  m.protocol = make_payload<GcRoundPayload>();
  const Message out = alg.incoming_message(std::move(m), 1);
  EXPECT_FALSE(out.has_protocol());
  EXPECT_EQ(out.app_data, Message::from_text("data").app_data);
}

TEST(SimpleMajority, RecoversInstantlyOnRemerge) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 6);
  gcs.apply_partition(0, ProcessSet(6, {0, 1, 2}));
  // {3,4,5} is half without process 0: no primary anywhere...
  EXPECT_FALSE(gcs.algorithm(4).in_primary());
  // ...but {0,1,2} is half *with* process 0:
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  gcs.apply_merge(0, 1);
  EXPECT_TRUE(test::all_in_primary(gcs, ProcessSet::full(6)));
}

TEST(SimpleMajority, DebugInfoTracksLastDeclaredPrimary) {
  const View initial{1, ProcessSet::full(5)};
  SimpleMajority alg(2, initial);
  alg.view_changed(View{4, ProcessSet(5, {1, 2, 3})});
  EXPECT_EQ(alg.debug_info().last_primary.number, 4u);
  alg.view_changed(View{5, ProcessSet(5, {2})});
  // Not primary now; the debug record keeps the last declared one.
  EXPECT_EQ(alg.debug_info().last_primary.number, 4u);
  EXPECT_EQ(alg.debug_info().ambiguous_count, 0u);
}

}  // namespace
}  // namespace dynvote
