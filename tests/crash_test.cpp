// Extension coverage (thesis §5.1 future work): process crashes and
// crash-recovery with stable storage.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "gcs/gcs.hpp"
#include "sim/driver.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

using test::all_in_primary;
using test::settle;

TEST(Crash, SurvivorsGetANewViewAndReformThePrimary) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_crash(4);
  EXPECT_TRUE(gcs.is_crashed(4));
  EXPECT_EQ(gcs.view_of(0).members, ProcessSet(5, {0, 1, 2, 3}));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(5, {0, 1, 2, 3})));
}

TEST(Crash, CrashedProcessIsMutedAndExemptFromInvariants) {
  Gcs gcs(AlgorithmKind::kYkd, 4);
  InvariantChecker checker(gcs);
  // Process 0 is in_primary when it crashes; its frozen claim must not
  // count as a live primary nor trip the checker.
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  gcs.apply_crash(0);
  EXPECT_NO_THROW(checker.check(gcs));
  settle(gcs);
  EXPECT_NO_THROW(checker.check(gcs));
  // {1,2,3} re-formed; has_primary never double-counts the dead claim.
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet(4, {1, 2, 3})));
}

TEST(Crash, CannotCrashTwiceRecoverTheLivingOrMergeTheDead) {
  Gcs gcs(AlgorithmKind::kYkd, 3);
  gcs.apply_crash(2);
  EXPECT_THROW(gcs.apply_crash(2), PreconditionViolation);
  EXPECT_THROW(gcs.apply_recovery(1), PreconditionViolation);
  // A crashed process comes back through a recovery, never a merge.
  const std::size_t dead = gcs.topology().component_of(2);
  const std::size_t live = gcs.topology().component_of(0);
  EXPECT_THROW(gcs.apply_merge(dead, live), PreconditionViolation);
  EXPECT_THROW(gcs.apply_merge(live, dead), PreconditionViolation);
  EXPECT_EQ(gcs.view_of(0).members, ProcessSet(3, {0, 1}));
}

TEST(Crash, RecoveryRejoinsThroughAMerge) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_crash(4);
  settle(gcs);

  gcs.apply_recovery(4);
  EXPECT_FALSE(gcs.is_crashed(4));
  // Recovered alone: not primary, but alive with its state intact.
  EXPECT_FALSE(gcs.algorithm(4).in_primary());
  EXPECT_EQ(gcs.view_of(4).members, ProcessSet(5, {4}));

  gcs.apply_merge(gcs.topology().component_of(0),
                  gcs.topology().component_of(4));
  settle(gcs);
  EXPECT_TRUE(all_in_primary(gcs, ProcessSet::full(5)));
}

/// A (recipient, sender) pair for every message an algorithm receives.
using Receipts = std::vector<std::pair<ProcessId, ProcessId>>;

class ReceiptRecorder final : public test::ForwardingAlgorithm {
 public:
  ReceiptRecorder(std::unique_ptr<PrimaryComponentAlgorithm> inner,
                  Receipts* log)
      : ForwardingAlgorithm(std::move(inner)), log_(log) {}

  Message incoming_message(Message message, ProcessId sender) override {
    log_->emplace_back(self(), sender);
    return ForwardingAlgorithm::incoming_message(std::move(message), sender);
  }

 private:
  Receipts* log_;
};

// The crash flush hands each in-flight multicast of the dead process's
// component to its recipients minus the dead process: a survivor's
// multicast reaches every survivor, and the dead process's own reaches
// them only if it crosses.  The dead process receives nothing, and only
// what the survivors receive counts as a delivery.
TEST(Crash, CrashedProcessReceivesNothingInFlight) {
  constexpr ProcessId kDead = 2;
  for (const bool crosses : {true, false}) {
    SCOPED_TRACE(crosses ? "the dead process's multicast crosses"
                         : "the dead process's multicast is lost");
    Receipts receipts;
    Gcs gcs(
        [&](ProcessId self, const View& initial)
            -> std::unique_ptr<PrimaryComponentAlgorithm> {
          return std::make_unique<ReceiptRecorder>(
              make_algorithm(AlgorithmKind::kYkd, self, initial), &receipts);
        },
        5);
    // Split off and merge back process 4: all five install the merged
    // view, and one round puts their five round-1 states in flight.
    gcs.apply_partition(0, ProcessSet(5, {4}));
    settle(gcs);
    gcs.apply_merge(0, 1);
    gcs.step_round();
    ASSERT_FALSE(gcs.network_idle());

    receipts.clear();
    const std::uint64_t before = gcs.deliveries();
    gcs.apply_crash(kDead, crosses ? test::all_cross() : test::no_cross());

    // In send order (ascending sender), then ascending recipient.
    Receipts expected;
    for (ProcessId sender = 0; sender < 5; ++sender) {
      if (sender == kDead && !crosses) continue;
      for (ProcessId recipient : {0, 1, 3, 4}) {
        expected.emplace_back(recipient, sender);
      }
    }
    EXPECT_EQ(receipts, expected);
    EXPECT_EQ(gcs.deliveries() - before, expected.size());
    EXPECT_TRUE(gcs.network_idle());
  }
}

TEST(Crash, CrashingAPrimaryMajorityMemberBlocksOnePending) {
  // 1-pending's worst case becomes *permanent* under a crash: the member
  // whose testimony is required never returns.
  Gcs gcs(AlgorithmKind::kOnePending, 5);
  gcs.apply_partition(0, ProcessSet(5, {4}));
  while (gcs.step_round()) {
  }
  gcs.apply_merge(0, 1);
  gcs.step_round();
  gcs.step_round();  // attempts for {0..4} in flight
  gcs.apply_crash(4, [](ProcessId) { return false; });
  while (gcs.step_round()) {
  }
  // {0,1,2,3} pends on {0..4} forever: process 4 is dead.
  EXPECT_EQ(test::primary_member_count(gcs), 0u);
  EXPECT_TRUE(gcs.algorithm(0).debug_info().blocked);

  // YKD in the same history just pipelines past it.
  Gcs ykd(AlgorithmKind::kYkd, 5);
  ykd.apply_partition(0, ProcessSet(5, {4}));
  while (ykd.step_round()) {
  }
  ykd.apply_merge(0, 1);
  ykd.step_round();
  ykd.step_round();
  ykd.apply_crash(4, [](ProcessId) { return false; });
  while (ykd.step_round()) {
  }
  EXPECT_TRUE(all_in_primary(ykd, ProcessSet(5, {0, 1, 2, 3})));
}

TEST(Crash, DriverInjectsCrashesWhenConfigured) {
  SimulationConfig config;
  config.algorithm = AlgorithmKind::kYkd;
  config.processes = 12;
  config.changes_per_run = 20;
  config.mean_rounds_between_changes = 2.0;
  config.crash_fraction = 0.5;
  config.seed = 99;

  Simulation sim(config);
  bool saw_a_crash = false;
  for (int run = 0; run < 10; ++run) {
    (void)sim.run_once();
    saw_a_crash |= !sim.gcs().crashed().empty();
  }
  EXPECT_TRUE(saw_a_crash);
}

TEST(Crash, ZeroCrashFractionKeepsLegacySchedulesBitIdentical) {
  // The extension must not perturb the paper-model experiments.
  SimulationConfig config;
  config.algorithm = AlgorithmKind::kDfls;
  config.processes = 16;
  config.changes_per_run = 8;
  config.mean_rounds_between_changes = 2.0;
  config.seed = 4242;

  SimulationConfig with_knob = config;
  with_knob.crash_fraction = 0.0;

  Simulation a(config), b(with_knob);
  for (int run = 0; run < 4; ++run) {
    const RunResult ra = a.run_once();
    const RunResult rb = b.run_once();
    EXPECT_EQ(ra.primary_at_end, rb.primary_at_end);
    EXPECT_EQ(ra.rounds_executed, rb.rounds_executed);
  }
}

TEST(Crash, EveryAlgorithmSurvivesCrashChurn) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    SimulationConfig config;
    config.algorithm = kind;
    config.processes = 10;
    config.changes_per_run = 16;
    config.mean_rounds_between_changes = 1.5;
    config.crash_fraction = 0.3;
    config.seed = 1234;
    Simulation sim(config);
    for (int run = 0; run < 5; ++run) {
      EXPECT_NO_THROW((void)sim.run_once()) << to_string(kind);
    }
  }
}

TEST(Crash, FaultSchedulerNeverKillsTheLastProcess) {
  // At crash fraction 0.3 most draws are connectivity changes, so the
  // schedule also reaches one live process with the coin on connectivity,
  // where no partition or merge is feasible: it must recover instead.
  FaultScheduler sched(5, 0.0, 0.3);
  Topology topo(3);
  ProcessSet crashed(3);
  std::size_t lone_draws = 0;
  for (int i = 0; i < 200; ++i) {
    if (crashed.count() == 2) ++lone_draws;
    const ConnectivityChange c = sched.next_change(topo, crashed);
    switch (c.kind) {
      case ConnectivityChange::Kind::kPartition:
        topo.split(c.component_a, c.moved);
        break;
      case ConnectivityChange::Kind::kMerge:
        topo.merge(c.component_a, c.component_b);
        break;
      case ConnectivityChange::Kind::kCrash:
        EXPECT_LE(crashed.count(), 1u);
        // Isolate + mark, as the GCS would.
        if (topo.component(topo.component_of(c.process)).count() > 1) {
          ProcessSet lone(3);
          lone.insert(c.process);
          topo.split(topo.component_of(c.process), lone);
        }
        crashed.insert(c.process);
        break;
      case ConnectivityChange::Kind::kRecovery:
        crashed.erase(c.process);
        break;
    }
    EXPECT_LT(crashed.count(), 3u);
  }
  EXPECT_GE(lone_draws, 5u);
}

}  // namespace
}  // namespace dynvote
