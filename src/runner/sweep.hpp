// The sweep scheduler.
//
// Every figure in the thesis is a sweep: a cross-product of algorithms x
// change counts x rates x mode, each cell simulated for hundreds of runs.
// The seeding discipline (a run's schedule is a pure function of the case
// coordinates and the run index, never of the algorithm) makes fresh-start
// cells embarrassingly parallel: a case splits into contiguous run chunks
// that any worker may claim, and chunk results merge in run order,
// bit-identical to the serial `run_case` path -- same success vector, same
// histograms, same counters (the test suite asserts this for every
// algorithm and both modes).
//
// Cascading cases thread one world through all their runs, so each runs
// whole on one worker, simulated exactly once, with the invariant checker
// seeing its whole history; sweeps parallelize across such cases.
// Splitting one would need an unchecked replay to reach each cut (about
// 1.8x the CPU for every replayed run) and would restart the checker's
// primary chain at every cut (DESIGN.md section 4c).
//
// One UnitBoard holds every scheduling decision: the split, claims,
// re-queues, first-result-wins acceptance, the run-order merge and the
// per-case report.  Two schedulers drain it: run_sweep's worker threads,
// and the fabric coordinator (fabric/coordinator.hpp), which adds only
// remote leasing on top.  Every unit, wherever it runs, executes through
// run_unit.
//
// DV_JOBS controls the worker count (default: hardware concurrency); every
// sweep with a name also writes a versioned JSON manifest, see artifact.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runner/progress.hpp"
#include "sim/experiment.hpp"

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
  /// never split).  0 = auto (kAutoShardFloor).  Chunk boundaries never
  /// affect results (merge is exact); this only bounds scheduling overhead
  /// for tiny cases.
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
};

/// Execute the sweep across `jobs` workers -- the calling thread plus
/// jobs - 1 threads -- and (when `spec.name` is set) record its manifest.
/// Results are deterministic: independent of DV_JOBS, shard sizing, and
/// worker scheduling.  The first exception a unit throws stops further
/// claims and is rethrown once every worker has stopped.
SweepResult run_sweep(const SweepSpec& spec);

/// DV_JOBS, else hardware concurrency, never zero.
std::size_t jobs_from_env();

/// The floor SweepSpec::min_shard_runs == 0 resolves to.
inline constexpr std::uint64_t kAutoShardFloor = 32;

/// A contiguous run range [first_run, first_run + run_count) of one case:
/// the unit of work every scheduler hands out.
struct SweepUnit {
  std::size_t case_index = 0;
  std::uint64_t first_run = 0;
  std::uint64_t run_count = 0;
};

/// One executed unit: its partial result and the wall seconds it took.
struct UnitRun {
  CaseResult result;
  double seconds = 0.0;
};

/// Execute one unit of `sweep_case` (run_case_shard, which also runs a
/// cascading case whole) under a case-labeled trace span.  In-process
/// workers, coordinator threads and remote fabric workers all execute
/// units through here, so placement never shows in the results.
UnitRun run_unit(const SweepCase& sweep_case, std::uint64_t first_run,
                 std::uint64_t run_count);

/// The scheduling state of one sweep.
///
/// The constructor splits every case once: whole-case units first
/// (cascading cases, which thread one world through their runs, and
/// zero-run cases), then the fresh-start cases in chunks of
/// max(floor, runs / (4 * max(4, workers))), where the floor is
/// SweepSpec::min_shard_runs (kAutoShardFloor when 0).  The pending queue
/// hands units out in that order.
///
/// The board is not internally locked: its owner guards claim, requeue,
/// holder, accept and all_done with one mutex of its own.  unit() reads
/// immutable data and needs no lock.  finish_case runs outside the owner's
/// lock, on the thread whose accept completed the case -- no other thread
/// touches that case again -- and serializes only the progress report,
/// under a mutex of the board's.
class UnitBoard {
 public:
  static constexpr std::size_t kNoHolder = SIZE_MAX;

  enum class Accept {
    /// The unit was already done: a late straggler result, dropped.
    kDuplicate,
    /// Stored; the unit's case still has unfinished units.
    kStored,
    /// The unit was its case's last: call finish_case outside the lock.
    kCaseComplete,
  };

  /// `spec` must outlive the board.
  UnitBoard(const SweepSpec& spec, std::size_t workers);

  UnitBoard(const UnitBoard&) = delete;
  UnitBoard& operator=(const UnitBoard&) = delete;

  std::size_t unit_count() const { return units_.size(); }
  const SweepUnit& unit(std::size_t id) const { return units_[id]; }

  /// Lease the next pending unit to `holder`; nullopt when none is
  /// pending.  Counts a steal when the unit's case was last claimed by a
  /// different holder.
  std::optional<std::size_t> claim(std::size_t holder);

  /// Who holds a claimed, unfinished unit; kNoHolder when it is pending
  /// or done.
  std::size_t holder(std::size_t id) const { return state_[id].holder; }

  /// Put a claimed, unfinished unit back on the pending queue (its holder
  /// died or overran its lease).  Its holder may still return a result;
  /// the first result accepted wins.
  void requeue(std::size_t id);

  /// Record unit `id`'s result.  The first result for a unit wins: any two
  /// are bit-identical, because units are deterministic.
  Accept accept(std::size_t id, CaseResult&& result, double seconds);

  bool all_done() const { return cases_done_ == spec_.cases.size(); }

  /// Merge a completed case's partial results in run order, fill its
  /// CaseOutcome and report it to the progress sink.
  void finish_case(std::size_t case_index);

  /// The outcomes, in case order, once every case is finished.
  std::vector<CaseOutcome> take_outcomes() { return std::move(outcomes_); }

 private:
  struct UnitState {
    bool done = false;
    std::size_t holder = kNoHolder;
  };
  struct Partial {
    std::uint64_t first_run = 0;
    CaseResult result;
  };
  struct CaseState {
    std::vector<Partial> partials;
    double compute_seconds = 0.0;
    std::uint64_t finished_runs = 0;
    std::size_t steals = 0;
    std::size_t last_holder = kNoHolder;
  };

  const SweepSpec& spec_;
  ProgressSink& progress_;
  std::vector<SweepUnit> units_;
  std::vector<UnitState> state_;
  std::deque<std::size_t> pending_;
  std::vector<CaseState> cases_;
  std::size_t cases_done_ = 0;
  std::vector<CaseOutcome> outcomes_;

  std::mutex progress_mutex_;
  std::size_t cases_reported_ = 0;  // dvlint: guarded_by(progress_mutex_)
};

/// The sweep prologue shared by run_sweep and the fabric coordinator: arm
/// the trace recorder when DV_TRACE asks for it and return the start time.
std::chrono::steady_clock::time_point begin_sweep();

/// The shared epilogue: wall time since `start`, the trace drain, the
/// progress sink's sweep_done and, when `spec.name` is set, the manifest.
/// Every thread that ran units must have stopped.
void end_sweep(const SweepSpec& spec,
               std::chrono::steady_clock::time_point start,
               SweepResult& result);

/// Build the standard availability grid -- every algorithm crossed with
/// every rate at one change count and mode, in algorithm-major order (the
/// layout all the figure benches share).
std::vector<SweepCase> availability_grid(
    const std::vector<AlgorithmKind>& algorithms,
    const std::vector<double>& rates, std::size_t changes, RunMode mode,
    std::uint64_t runs, std::uint64_t base_seed, std::size_t processes = 64);

/// Human-readable case coordinates for progress lines and error messages,
/// e.g. "ykd p=64 c=6 r=4 cascading".
std::string case_label(const SweepCase& sweep_case);

}  // namespace dynvote
