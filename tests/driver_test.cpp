// The simulation driver: determinism, quiescence, statistics collection,
// and fresh-start vs cascading semantics.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/driver.hpp"

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

// Every event is one round or one change, and the count runs on across
// the runs of a cascade until a restart sets it back to zero.  A paused
// run refuses the restart.
TEST(Simulation, EventsCountEveryRoundAndChange) {
  Simulation sim(base_config());
  EXPECT_EQ(sim.events(), 0u);
  EXPECT_FALSE(sim.run_events(1).has_value());
  EXPECT_EQ(sim.events(), 1u);
  EXPECT_THROW(sim.restart(7), PreconditionViolation);
  EXPECT_EQ(sim.events(), 1u);
  std::uint64_t expected = 0;
  for (int run = 0; run < 3; ++run) {
    const std::optional<RunResult> r = sim.run_events(1'000'000);
    ASSERT_TRUE(r.has_value());
    expected += r->rounds_executed + r->changes_applied;
    EXPECT_EQ(sim.events(), expected);
  }
  sim.restart(7);
  EXPECT_EQ(sim.events(), 0u);
  EXPECT_EQ(sim.config().seed, 7u);
}

}  // namespace
}  // namespace dynvote
