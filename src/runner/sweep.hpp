// The parallel sweep engine.
//
// Every figure in the thesis is a sweep: a cross-product of algorithms x
// change counts x rates x mode, each cell simulated for hundreds of runs.
// The seeding discipline (a run's schedule is a pure function of the case
// coordinates and the run index, never of the algorithm) makes fresh-start
// cells embarrassingly parallel: idle workers claim contiguous run chunks
// from any unfinished case (work stealing), and chunk results merge in run
// order, bit-identical to the serial `run_case` path -- same success
// vector, same histograms, same counters (the test suite asserts this for
// every algorithm and both modes).
//
// Cascading cases thread one simulated world through all their runs, so
// each runs whole on one worker, simulated exactly once, with the invariant
// checker seeing its whole history; sweeps parallelize across such cases.
// Splitting one would need an unchecked replay to reach each cut (about
// 1.8x the CPU for every replayed run) and would restart the checker's
// primary chain at every cut (DESIGN.md section 4c).
//
// DV_JOBS controls the worker count (default: hardware concurrency); every
// sweep with a name also writes a versioned JSON manifest, see artifact.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/progress.hpp"
#include "sim/experiment.hpp"
#include "util/spill_arena.hpp"

namespace dynvote {

/// One cell of a sweep: a case plus the label it is reported under.
struct SweepCase {
  /// Output/manifest label for the algorithm, e.g. "ykd" or
  /// "mr1p[adopt]".  Required when `spec.algorithm_factory` is set;
  /// defaulted from `spec.algorithm` otherwise.
  std::string algorithm;
  CaseSpec spec;
};

struct SweepSpec {
  /// Artifact stem (manifest becomes $DV_ARTIFACT_DIR/BENCH_<name>.json).
  /// Empty = no artifact.
  std::string name;
  std::vector<SweepCase> cases;
  /// Worker threads; 0 means DV_JOBS, falling back to hardware concurrency.
  std::size_t jobs = 0;
  /// Smallest chunk a fresh-start case is split into (cascading cases are
  /// never split).  0 = auto (currently 32).  Chunk boundaries never affect
  /// results (merge is exact); this only bounds scheduling overhead for
  /// tiny cases.
  std::uint64_t min_shard_runs = 0;
  /// Progress feed; nullptr = default_progress_sink() (stderr, silenced
  /// by DV_PROGRESS=0).
  ProgressSink* progress = nullptr;
};

/// One finished cell, in the same order as SweepSpec::cases.
struct CaseOutcome {
  std::string algorithm;
  CaseSpec spec;
  CaseResult result;
  /// Summed worker time over this case's shards, i.e. its cost, regardless
  /// of how many workers shared it.
  double compute_seconds = 0.0;
  double runs_per_sec = 0.0;
  /// Simulation throughput over the same compute time: message rounds and
  /// (message, recipient) deliveries executed per second.
  double rounds_per_sec = 0.0;
  double deliveries_per_sec = 0.0;
  /// Steady-state heap allocations per message round, measured by a small
  /// warmed-up probe world (probe_steady_allocs_per_round) once per
  /// (algorithm, processes) per sweep, or per case for factory cases.
  /// Requires the counting allocator (dv_alloc_hook) to be linked into the
  /// binary; negative when it is not (the manifest then omits the field).
  double steady_allocs_per_round = -1.0;
  /// Result-producing work units this case was executed as (1 = serial).
  std::size_t shards = 0;
  /// Times a unit of this case was claimed by a different worker than the
  /// previous one -- scheduling telemetry, never part of the results.
  std::size_t steals = 0;
};

/// Per-connection telemetry from one fabric worker (src/fabric).  Declared
/// here, next to the other sweep telemetry, because the manifest writer
/// renders it; the runner layer never depends on the fabric itself.
struct FabricWorkerTelemetry {
  /// "hello" build string the worker announced, or "local" for the
  /// coordinator's own executor threads.
  std::string peer;
  std::uint64_t slots = 0;
  std::uint64_t units_done = 0;
  /// Simulate seconds this worker contributed (from its result frames).
  double busy_seconds = 0.0;
  /// The connection ended by death detection, not clean shutdown.
  bool died = false;
};

/// Scheduling telemetry for a fabric (multi-host) sweep.  Volatile by
/// construction: never part of the results fingerprint, which is what lets
/// a distributed run assert bit-identity against a single-host one.
struct FabricTelemetry {
  /// False for plain in-process sweeps; the manifest omits the block.
  bool used = false;
  std::uint64_t units_issued = 0;
  /// Units issued again after a lease deadline or a worker death.
  std::uint64_t units_reissued = 0;
  /// Units granted in response to worker steal requests (as opposed to
  /// the automatic top-up after each result).
  std::uint64_t units_stolen = 0;
  /// Late results for units already completed elsewhere, dropped.
  std::uint64_t duplicate_results = 0;
  std::uint64_t workers_connected = 0;
  std::uint64_t workers_died = 0;
  std::vector<FabricWorkerTelemetry> workers;
};

struct SweepResult {
  std::vector<CaseOutcome> cases;
  double wall_seconds = 0.0;
  std::size_t jobs = 1;
  /// Manifest path actually written; empty when artifacts were disabled.
  std::string artifact_path;
  /// Events file written when tracing was armed (DV_TRACE / --trace-out);
  /// empty otherwise.
  std::string trace_path;
  /// Populated by fabric coordinators (fabric/coordinator.hpp); default
  /// (used == false) for in-process sweeps.
  FabricTelemetry fabric;
  /// This sweep's metrics delta (src/obs), rendered into the manifest's
  /// volatile `observability` block.  Fabric coordinators fold aggregated
  /// worker snapshots in as well.  Never part of the results fingerprint.
  obs::MetricsSnapshot metrics;
  /// Spill-arena activity during this sweep, merged across worker threads
  /// (util/spill_arena.hpp): counter fields are deltas scoped to the sweep,
  /// byte gauges are end-of-sweep absolutes.  Volatile telemetry.
  SpillArenaStats arena;
};

/// Execute the sweep across the worker pool and (when `spec.name` is set)
/// record its manifest.  Results are deterministic: independent of DV_JOBS,
/// shard sizing, and worker scheduling.
SweepResult run_sweep(const SweepSpec& spec);

/// Arm the trace recorder when DV_TRACE asks for it (ring sizing from
/// DV_TRACE_BUF).  Idempotent; called by run_sweep and the fabric
/// coordinator so both paths honor the same knobs.
void maybe_enable_trace_from_env();

/// Drain the trace rings and write this sweep's dynvote.events.v1 file:
/// to DV_TRACE_OUT verbatim when set, else TRACE_<sweep_name>.events under
/// the artifact-directory discipline.  Returns the path written; empty
/// when tracing is off or the write was disabled/failed.  Caller must have
/// quiesced emitting threads (see obs/trace.hpp).
std::string drain_trace_to_artifact(const std::string& sweep_name);

/// DV_JOBS, else hardware concurrency, never zero.
std::size_t jobs_from_env();

/// Build the standard availability grid -- every algorithm crossed with
/// every rate at one change count and mode, in algorithm-major order (the
/// layout all the figure benches share).
std::vector<SweepCase> availability_grid(
    const std::vector<AlgorithmKind>& algorithms,
    const std::vector<double>& rates, std::size_t changes, RunMode mode,
    std::uint64_t runs, std::uint64_t base_seed, std::size_t processes = 64);

/// Steady-state heap allocations per message round of `cs`'s algorithm at
/// its process count, measured on a warmed-up probe world: the value behind
/// CaseOutcome::steady_allocs_per_round, which run_sweep probes once per
/// (algorithm, processes) and per case for factory cases.  Each call builds
/// a probe world and counts `runner.alloc_probes`.  Negative when the
/// counting allocator (dv_alloc_hook) is not linked into the binary or the
/// case cannot partition.
double probe_steady_allocs_per_round(const CaseSpec& cs);

/// Human-readable case coordinates for progress lines and error messages,
/// e.g. "ykd p=64 c=6 r=4 cascading".
std::string case_label(const SweepCase& sweep_case);

}  // namespace dynvote
