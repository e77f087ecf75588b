#include "sim/experiment.hpp"

#include <bit>

#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "sim/snapshot.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace dynvote {

namespace {

std::uint64_t rate_key(double mean_rounds) {
  return std::bit_cast<std::uint64_t>(mean_rounds);
}

SimulationConfig config_for(const CaseSpec& spec, std::uint64_t seed) {
  SimulationConfig config;
  config.algorithm = spec.algorithm;
  config.algorithm_factory = spec.algorithm_factory;
  config.processes = spec.processes;
  config.changes_per_run = spec.changes;
  config.mean_rounds_between_changes = spec.mean_rounds;
  config.crash_fraction = spec.crash_fraction;
  config.fault_model = spec.fault_model;
  config.seed = seed;
  config.check_invariants = spec.check_invariants;
  config.measure_wire_sizes = spec.measure_wire_sizes;
  return config;
}

/// Fold the simulation's cumulative wire/invariant counters into the result
/// as the delta since the previous fold.  Both modes call this once per run
/// (fresh-start with a world built or restarted for the run, its counters
/// at zero; cascading with the one long-lived simulation), so per-case
/// aggregation -- including `wire.max_message_bytes` -- is byte-for-byte
/// the same shape in both.
void fold_run_counters(CaseResult& result, const Simulation& sim,
                       WireStats& prev_wire, std::uint64_t& prev_checks,
                       std::uint64_t& prev_deliveries) {
  const WireStats& now = sim.gcs().wire_stats();
  WireStats delta;
  delta.messages_sent = now.messages_sent - prev_wire.messages_sent;
  delta.protocol_messages_sent =
      now.protocol_messages_sent - prev_wire.protocol_messages_sent;
  delta.total_message_bytes =
      now.total_message_bytes - prev_wire.total_message_bytes;
  delta.max_message_bytes = now.max_message_bytes;
  result.wire.merge(delta);
  prev_wire = now;

  result.invariant_checks += sim.invariant_checks() - prev_checks;
  prev_checks = sim.invariant_checks();

  result.total_deliveries += sim.gcs().deliveries() - prev_deliveries;
  prev_deliveries = sim.gcs().deliveries();
}

}  // namespace

const char* to_string(RunMode mode) {
  return mode == RunMode::kFreshStart ? "fresh-start" : "cascading";
}

namespace {

std::uint64_t shard_seed(const CaseSpec& spec, std::uint64_t run_index) {
  return mix_seed(spec.base_seed, spec.processes, spec.changes,
                  rate_key(spec.mean_rounds), run_index);
}

}  // namespace

CaseResult run_case_shard(const CaseSpec& spec, std::uint64_t first_run,
                          std::uint64_t count) {
  if (spec.mode == RunMode::kCascading) {
    DV_REQUIRE(first_run == 0 && count == spec.runs,
               "only fresh-start cases shard; cascading runs share one world");
    return run_cascading_shard(spec, CascadeCheckpoint{}, count);
  }
  CaseResult result;
  result.success_per_run.reserve(count);
  if (count == 0) return result;
  // One world per shard: built for the first run, then restarted in place
  // for each later one, which reads exactly as a world built for it.
  Simulation sim(config_for(spec, shard_seed(spec, first_run)));
  for (std::uint64_t i = first_run; i < first_run + count; ++i) {
    if (i != first_run) sim.restart(shard_seed(spec, i));
    RunResult run;
    {
      DV_TRACE_SPAN("run", i, spec.processes);
      run = sim.run_once();
    }
    DV_TRACE_INSTANT("run_complete", i, run.primary_at_end ? 1 : 0);
    result.record(std::move(run));
    WireStats prev_wire;
    std::uint64_t prev_checks = 0;
    std::uint64_t prev_deliveries = 0;
    fold_run_counters(result, sim, prev_wire, prev_checks, prev_deliveries);
  }
  return result;
}

namespace {

std::uint64_t cascading_seed(const CaseSpec& spec) {
  return mix_seed(spec.base_seed, spec.processes, spec.changes,
                  rate_key(spec.mean_rounds), 0xCA5CADEull);
}

}  // namespace

std::vector<CascadeCheckpoint> scout_cascading_case(
    const CaseSpec& spec, const std::vector<std::uint64_t>& boundaries) {
  DV_REQUIRE(spec.mode == RunMode::kCascading,
             "scouting only applies to cascading cases");
  DV_REQUIRE(!boundaries.empty() && boundaries.front() > 0,
             "boundaries must start after run 0");

  CaseSpec scout = spec;
  scout.check_invariants = false;
  scout.measure_wire_sizes = false;
  Simulation sim(config_for(scout, cascading_seed(scout)));

  std::vector<CascadeCheckpoint> checkpoints;
  checkpoints.reserve(boundaries.size());
  std::uint64_t run = 0;
  for (std::uint64_t boundary : boundaries) {
    DV_REQUIRE(boundary > run, "boundaries must be strictly increasing");
    while (run < boundary) {
      (void)sim.run_once();
      ++run;
    }
    checkpoints.push_back(CascadeCheckpoint{run, save_snapshot(sim)});
  }
  return checkpoints;
}

CaseResult run_cascading_shard(const CaseSpec& spec,
                               const CascadeCheckpoint& checkpoint,
                               std::uint64_t count) {
  DV_REQUIRE(spec.mode == RunMode::kCascading,
             "run_cascading_shard needs a cascading case");
  Simulation sim(config_for(spec, cascading_seed(spec)));
  if (!checkpoint.bytes.empty()) {
    restore_snapshot(sim, checkpoint.bytes);
  } else {
    DV_REQUIRE(checkpoint.first_run == 0,
               "resuming mid-case needs snapshot bytes");
  }

  CaseResult result;
  result.success_per_run.reserve(count);
  // Baselines come from the restored cumulative counters, so each fold
  // yields exactly this shard's per-run delta.
  WireStats prev_wire = sim.gcs().wire_stats();
  std::uint64_t prev_checks = sim.invariant_checks();
  std::uint64_t prev_deliveries = sim.gcs().deliveries();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t run_index = checkpoint.first_run + i;
    RunResult run;
    {
      DV_TRACE_SPAN("run", run_index, spec.processes);
      run = sim.run_once();
    }
    DV_TRACE_INSTANT("run_complete", run_index, run.primary_at_end ? 1 : 0);
    result.record(std::move(run));
    fold_run_counters(result, sim, prev_wire, prev_checks, prev_deliveries);
  }
  return result;
}

CaseResult run_case(const CaseSpec& spec) {
  return run_case_shard(spec, 0, spec.runs);
}

std::vector<double> standard_rate_sweep() {
  return {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

std::vector<std::size_t> standard_change_counts() { return {2, 6, 12}; }

std::uint64_t runs_from_env(std::uint64_t fallback) {
  return env_u64("DV_RUNS", fallback);
}

std::uint64_t seed_from_env(std::uint64_t fallback) {
  return env_u64("DV_SEED", fallback);
}

}  // namespace dynvote
