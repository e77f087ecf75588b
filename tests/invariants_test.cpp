// The invariant checker is itself a product ("none of the algorithms
// demonstrated an inconsistency" is a headline thesis result), so it must
// provably catch violations.  We feed it the exact naive algorithm the
// thesis's Figure 3-1 warns about -- majority-of-last-primary with no
// agreement protocol -- and check that it reports the split brain.
#include <gtest/gtest.h>

#include "core/quorum.hpp"
#include "gcs/gcs.hpp"
#include "sim/invariants.hpp"
#include "sim_test_util.hpp"
#include "util/assert.hpp"

namespace dynvote {
namespace {

// The strawman from Figure 3-1: on every view, declare a primary if the
// view holds a majority of the last primary this process knows -- with no
// message exchange, so processes act on divergent knowledge.
class NaiveDynamicVoting final : public PrimaryComponentAlgorithm {
 public:
  NaiveDynamicVoting(ProcessId self, const View& initial_view)
      : PrimaryComponentAlgorithm(self, initial_view),
        last_primary_{initial_view.id, initial_view.members} {}

  void view_changed(const View& view) override {
    in_primary_ = is_subquorum(view.members, last_primary_.members);
    if (in_primary_) last_primary_ = Session{view.id, view.members};
  }

  Message incoming_message(Message m, ProcessId) override {
    m.protocol = nullptr;
    return m;
  }
  std::optional<Message> outgoing_message_poll(const Message&) override {
    return std::nullopt;
  }
  bool in_primary() const override { return in_primary_; }
  std::string_view name() const override { return "naive"; }
  AlgorithmDebugInfo debug_info() const override {
    return AlgorithmDebugInfo{last_primary_, 0, false, 0};
  }
  const Session& last_primary_session() const override {
    return last_primary_;
  }

 private:
  Session last_primary_;
  bool in_primary_ = true;
};

Gcs::AlgorithmFactory naive_factory() {
  return [](ProcessId self, const View& initial) {
    return std::make_unique<NaiveDynamicVoting>(self, initial);
  };
}

TEST(Invariants, CleanRunPasses) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  InvariantChecker checker(gcs);
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  checker.check(gcs);
  test::settle(gcs);
  checker.check(gcs);
  EXPECT_GE(checker.checks_performed(), 2u);
}

TEST(Invariants, CatchesTheFigure31SplitBrain) {
  // Figure 3-1 with the naive rule, no messages needed:
  //  * {a,b,c,d,e} partitions into {a,b,c} | {d,e}: {a,b,c} is a majority
  //    of the old primary -> declares itself primary immediately;
  //  * {a,b,c} splits into {a,b} | {c}: {a,b} keeps the primary (majority
  //    of {a,b,c}) -- but c's knowledge of the {a,b,c} primary rides along;
  //  * c rejoins {d,e}: from c's stale perspective {c,d,e} is a majority of
  //    {a,b,c,d,e}... except c updated its last primary to {a,b,c}.  Use
  //    d's perspective instead: d never saw {a,b,c}, so for d the view
  //    {c,d,e} is a majority of the original five -> primary.
  //  Now {a,b} and {c,d,e} are both live primaries.
  Gcs gcs(naive_factory(), 5);
  InvariantChecker checker(gcs);

  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  checker.check(gcs);
  const std::size_t abc = gcs.topology().component_of(0);
  gcs.apply_partition(abc, ProcessSet(5, {2}));
  checker.check(gcs);

  gcs.apply_merge(gcs.topology().component_of(2),
                  gcs.topology().component_of(3));
  // d and e declare {c,d,e} primary while {a,b} is still primary -- but c,
  // whose last primary is {a,b,c}, does NOT consider {c,d,e} a quorum.
  // That is *also* a violation: members of one view disagreeing.
  EXPECT_THROW(checker.check(gcs), InvariantViolation);
}

TEST(Invariants, CatchesTwoLivePrimaries) {
  // Remove c from the story so each component agrees internally, leaving
  // the pure two-live-primaries violation.
  Gcs gcs(naive_factory(), 6);
  InvariantChecker checker(gcs);

  // {0,1,2,3} | {4,5}: left side is a majority of the original -> primary.
  gcs.apply_partition(0, ProcessSet(6, {4, 5}));
  checker.check(gcs);
  // {0,1} | {2,3}: {0,1} keeps the chain ({0,1} is half of {0,1,2,3} with
  // the lexical smallest).  {2,3} drops out.
  gcs.apply_partition(0, ProcessSet(6, {2, 3}));
  checker.check(gcs);
  // {2,3} + {4,5}: all four still think the last primary is the one they
  // were last part of... {2,3}'s is {0,1,2,3}, {4,5}'s is the original six.
  // {2,3,4,5} is 4 of 6: a majority of the original -- 4 and 5 declare.
  // 2 and 3 see 2 of 4 of {0,1,2,3} without its lexical smallest: refuse.
  gcs.apply_merge(gcs.topology().component_of(2),
                  gcs.topology().component_of(4));
  EXPECT_THROW(checker.check(gcs), InvariantViolation);
  // Only a passing check lets an unchanged world skip the next one.
  EXPECT_THROW(checker.check(gcs), InvariantViolation);
}

// Rounds until quiescent, with a check after each, as the simulation runs.
void settle_checked(Gcs& gcs, InvariantChecker& checker) {
  for (int round = 0; round < 50 && gcs.step_round(); ++round) {
    checker.check(gcs);
  }
}

bool only_process_1_crosses(ProcessId sender) { return sender == 1; }

// An interrupted formation (thesis Fig. 3-1) leaves a session formed at one
// member and claimed by none, and the next primary descends from it.  The
// chain must advance through that session: the next primary intersects it
// but not its predecessor, so a chain that follows claims alone reads the
// two claimed primaries as temporally disjoint.
TEST(Invariants, ChainAdvancesThroughASessionFormedAtOneMember) {
  Gcs gcs(AlgorithmKind::kYkd, 3);
  InvariantChecker checker(gcs);
  // {1,2} | {0}, then {1} | {2}: process 1 alone is the primary {1}.
  gcs.apply_partition(0, ProcessSet(3, {0}));
  checker.check(gcs);
  settle_checked(gcs, checker);
  gcs.apply_partition(gcs.topology().component_of(1), ProcessSet(3, {2}));
  checker.check(gcs);
  settle_checked(gcs, checker);
  ASSERT_TRUE(gcs.algorithm(1).in_primary());
  const Session claimed = gcs.algorithm(1).last_primary_session();
  ASSERT_EQ(claimed.members, ProcessSet(3, {1}));

  // {0} joins {1}.  Two rounds later both attempts to form {0,1} are in
  // flight, and the split lets only process 1's reach process 0: 0 forms
  // {0,1} and 1 does not.
  gcs.apply_merge(gcs.topology().component_of(0),
                  gcs.topology().component_of(1));
  checker.check(gcs);
  for (int round = 0; round < 2; ++round) {
    gcs.step_round();
    checker.check(gcs);
  }
  gcs.apply_partition(gcs.topology().component_of(0), ProcessSet(3, {1}),
                      &only_process_1_crosses);
  ASSERT_EQ(gcs.algorithm(0).last_primary_session().members,
            ProcessSet(3, {0, 1}));
  ASSERT_EQ(gcs.algorithm(1).last_primary_session(), claimed);
  checker.check(gcs);

  // Process 0 alone is half of {0,1} with the lexical tie-break, so it
  // forms {0}: it shares 0 with {0,1} and nothing with {1}.
  settle_checked(gcs, checker);
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  EXPECT_EQ(gcs.algorithm(0).last_primary_session().members,
            ProcessSet(3, {0}));
  EXPECT_FALSE(gcs.algorithm(1).in_primary());
}

// Every call counts, including those an unchanged world passes unwalked.
TEST(Invariants, ChecksAccumulate) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 4);
  InvariantChecker checker(gcs);
  for (int i = 0; i < 5; ++i) checker.check(gcs);
  EXPECT_EQ(checker.checks_performed(), 5u);
}

}  // namespace
}  // namespace dynvote
