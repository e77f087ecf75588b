// The simulation driver: determinism, quiescence, statistics collection,
// and fresh-start vs cascading semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/driver.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

SimulationConfig base_config() {
  SimulationConfig config;
  config.algorithm = AlgorithmKind::kYkd;
  config.processes = 16;
  config.changes_per_run = 6;
  config.mean_rounds_between_changes = 3.0;
  config.seed = 12345;
  return config;
}

TEST(Simulation, RunAppliesExactlyTheConfiguredChanges) {
  Simulation sim(base_config());
  const RunResult r = sim.run_once();
  EXPECT_EQ(r.changes_applied, 6u);
  EXPECT_EQ(r.observer_ambiguous_at_changes.size(), 6u);
  EXPECT_EQ(sim.total_changes(), 6u);
}

TEST(Simulation, SameSeedIsFullyDeterministic) {
  Simulation a(base_config());
  Simulation b(base_config());
  for (int run = 0; run < 5; ++run) {
    const RunResult ra = a.run_once();
    const RunResult rb = b.run_once();
    EXPECT_EQ(ra.primary_at_end, rb.primary_at_end);
    EXPECT_EQ(ra.rounds_executed, rb.rounds_executed);
    EXPECT_EQ(ra.observer_ambiguous_at_end, rb.observer_ambiguous_at_end);
    EXPECT_EQ(ra.observer_ambiguous_at_changes,
              rb.observer_ambiguous_at_changes);
  }
}

TEST(Simulation, DifferentSeedsDiffer) {
  // Across several runs, at least something must differ.
  SimulationConfig other = base_config();
  other.seed = 54321;
  Simulation a(base_config());
  Simulation b(other);
  bool any_difference = false;
  for (int run = 0; run < 5; ++run) {
    const RunResult ra = a.run_once();
    const RunResult rb = b.run_once();
    any_difference |= ra.rounds_executed != rb.rounds_executed;
    any_difference |= ra.primary_at_end != rb.primary_at_end;
  }
  EXPECT_TRUE(any_difference);
}

TEST(Simulation, EndsQuiescent) {
  SimulationConfig config = base_config();
  Simulation sim(config);
  (void)sim.run_once();
  // After stabilization nothing is in flight and nobody wants to talk.
  EXPECT_TRUE(sim.gcs().network_idle());
  EXPECT_FALSE(sim.gcs().step_round());
}

TEST(Simulation, CascadingRunsContinueFromPriorState) {
  Simulation sim(base_config());
  (void)sim.run_once();
  const auto views_after_first = sim.gcs().view_of(0).id;
  (void)sim.run_once();
  // View ids keep growing: the second run did not reset the world.
  EXPECT_GT(sim.gcs().view_of(0).id, views_after_first);
  EXPECT_EQ(sim.total_changes(), 12u);
}

TEST(Simulation, InvariantCheckingIsOnByDefault) {
  Simulation sim(base_config());
  (void)sim.run_once();
  EXPECT_GT(sim.invariant_checks(), 0u);
}

TEST(Simulation, EveryAlgorithmRunsCleanly) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    SimulationConfig config = base_config();
    config.algorithm = kind;
    config.changes_per_run = 8;
    Simulation sim(config);
    for (int run = 0; run < 3; ++run) {
      EXPECT_NO_THROW((void)sim.run_once()) << to_string(kind);
    }
  }
}

TEST(Simulation, RejectsBadConfigs) {
  SimulationConfig too_small = base_config();
  too_small.processes = 1;
  EXPECT_THROW(Simulation{too_small}, PreconditionViolation);

  SimulationConfig bad_observer = base_config();
  bad_observer.observer = 99;
  EXPECT_THROW(Simulation{bad_observer}, PreconditionViolation);
}

TEST(Simulation, ZeroRateMeansNoRoundsBetweenChanges) {
  SimulationConfig config = base_config();
  config.mean_rounds_between_changes = 0.0;
  config.changes_per_run = 4;
  Simulation sim(config);
  const RunResult r = sim.run_once();
  // All rounds happen in stabilization; the injection phase has none.
  // Stabilization of a 2-round protocol takes only a handful of rounds.
  EXPECT_LE(r.rounds_executed, 16u);
}

/// Runs events until `sim`'s paused run has applied `changes` changes, plus
/// `rounds_after` further events, and returns its saved state.
std::vector<std::byte> saved_after(Simulation& sim, std::size_t changes,
                                   std::size_t rounds_after = 0) {
  while (sim.total_changes() < changes) {
    EXPECT_FALSE(sim.run_events(1).has_value()) << "run ended early";
  }
  for (std::size_t i = 0; i < rounds_after; ++i) {
    EXPECT_FALSE(sim.run_events(1).has_value()) << "run ended early";
  }
  EXPECT_TRUE(sim.run_in_progress());
  Encoder enc;
  sim.save(enc);
  return enc.take();
}

void load_into(Simulation& sim, const std::vector<std::byte>& bytes) {
  Decoder dec(bytes);
  sim.load(dec);
  dec.finish();
}

// A paused run restored into a simulation with a smaller change budget
// would never reach change_index == changes_per_run, the only point at
// which injection stops, and so would inject changes forever.
TEST(Simulation, LoadRejectsARunPastItsChangeBudget) {
  SimulationConfig ten = base_config();
  ten.changes_per_run = 10;
  SimulationConfig three = ten;
  three.changes_per_run = 3;

  Simulation source(ten);
  const std::vector<std::byte> after_five = saved_after(source, 5);
  Simulation target(three);
  EXPECT_THROW(load_into(target, after_five), DecodeError);

  // Exactly at the budget but still injecting: the same.
  Simulation at_three(ten);
  EXPECT_THROW(load_into(target, saved_after(at_three, 3)), DecodeError);

  // Inside the budget, the restored run finishes under the target's.
  Simulation at_two(ten);
  Simulation resumed(three);
  load_into(resumed, saved_after(at_two, 2));
  const std::optional<RunResult> r = resumed.run_events(10'000);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->changes_applied, 3u);
  EXPECT_EQ(r->observer_ambiguous_at_changes.size(), 3u);
}

// A stabilizing run fails before its quiet-round count reaches the
// budget, so a paused one at or past it names no reachable point.
TEST(Simulation, LoadRejectsARunPastItsStabilizationBudget) {
  SimulationConfig config = base_config();
  Simulation source(config);
  // One stabilization round after the last change: quiet_rounds is 1.
  const std::vector<std::byte> bytes =
      saved_after(source, config.changes_per_run, 1);

  SimulationConfig one_round = config;
  one_round.max_stabilization_rounds = 1;
  Simulation target(one_round);
  EXPECT_THROW(load_into(target, bytes), DecodeError);

  Simulation same(config);
  EXPECT_NO_THROW(load_into(same, bytes));
}

}  // namespace
}  // namespace dynvote
