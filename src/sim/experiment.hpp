// Experiment cases and sweeps (thesis §4).
//
// A case is (algorithm, process count, #changes, rate, mode); each case is
// simulated in `runs` runs (the thesis used 1000).  Seeding is a pure
// function of the case coordinates and the run index -- never of the
// algorithm -- so every algorithm is tested against the identical random
// sequence, exactly as the thesis did.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fault_model.hpp"
#include "sim/stats.hpp"

namespace dynvote {

enum class RunMode {
  /// Each run begins in the original all-connected state (Figures
  /// 4-1..4-3): a shard builds one world and restarts it for each run.
  kFreshStart,
  /// Each run begins where the previous one ended (Figures 4-4..4-6).
  kCascading,
};

const char* to_string(RunMode mode);

struct CaseSpec {
  AlgorithmKind algorithm = AlgorithmKind::kYkd;
  /// When set, overrides `algorithm` (custom options / plugged-in
  /// algorithms); the seeding discipline is unaffected.
  Gcs::AlgorithmFactory algorithm_factory;
  std::size_t processes = 64;
  std::size_t changes = 6;
  double mean_rounds = 4.0;
  /// Extension: fraction of faults that are crashes/recoveries (§5.1).
  double crash_fraction = 0.0;
  /// Which fault model drives the runs (geometric = the thesis's regime).
  /// Non-geometric cases are labeled and fingerprinted with the model name
  /// and parameters, so their manifests never collide with geometric ones.
  FaultModelParams fault_model;
  std::uint64_t runs = 1000;
  RunMode mode = RunMode::kFreshStart;
  std::uint64_t base_seed = 0x5eedu;
  bool measure_wire_sizes = false;
  bool check_invariants = true;
};

/// Simulate one case and aggregate the results.
CaseResult run_case(const CaseSpec& spec);

/// Simulate the contiguous run-index range [first_run, first_run + count)
/// of a case -- the unit the sweep schedulers hand out.  A fresh-start
/// case's seeding is a pure function of the case coordinates and the
/// absolute run index, so its shards are independent and
/// `CaseResult::merge`-ing them in index order is bit-identical to the
/// serial `run_case`.  A cascading case threads one world through all its
/// runs, so it only runs whole: `first_run` must be 0 and `count` must be
/// `spec.runs`.
CaseResult run_case_shard(const CaseSpec& spec, std::uint64_t first_run,
                          std::uint64_t count);

/// A resumption point inside a cascading case: the replay point after runs
/// [0, first_run) completed, as versioned snapshot bytes
/// (sim/snapshot.hpp).  first_run == 0 with empty bytes means "start
/// fresh".
struct CascadeCheckpoint {
  std::uint64_t first_run = 0;
  std::vector<std::byte> bytes;
};

/// Scout pass over a cascading case: run [0, max(boundaries)) with
/// invariant checking and wire measurement forced OFF -- neither flag
/// affects the trajectory, so the scout is cheap and reaches the same
/// states -- and emit a snapshot at each requested run boundary.
/// `boundaries` must be strictly increasing, non-empty, and start above 0.
/// The returned checkpoints restore into fully-instrumented simulations
/// (the snapshot envelope's config hash deliberately excludes the
/// observability flags), which replay the prefix under their own flags and
/// so carry its whole checker history.  The sweep runner never splits a
/// cascading case; the scout serves tools that cut one into pieces.
std::vector<CascadeCheckpoint> scout_cascading_case(
    const CaseSpec& spec, const std::vector<std::uint64_t>& boundaries);

/// Simulate the contiguous run range [checkpoint.first_run,
/// checkpoint.first_run + count) of a *cascading* case, restoring the
/// world from the checkpoint first (a replay of runs [0, first_run)).
/// Counter deltas are taken against the restored cumulative values, so
/// merging shard results in run order is bit-identical to the serial
/// `run_case`.  `spec.runs` is ignored in favor of the explicit range.
CaseResult run_cascading_shard(const CaseSpec& spec,
                               const CascadeCheckpoint& checkpoint,
                               std::uint64_t count);

/// The x-axis of the availability figures: mean message rounds between
/// connectivity changes, 0 through 12.
std::vector<double> standard_rate_sweep();

/// The change counts of the figures: {2, 6, 12}.
std::vector<std::size_t> standard_change_counts();

/// Runs per case: DV_RUNS from the environment, else `fallback`.
std::uint64_t runs_from_env(std::uint64_t fallback);

/// Base seed: DV_SEED from the environment, else `fallback`.
std::uint64_t seed_from_env(std::uint64_t fallback);

}  // namespace dynvote
