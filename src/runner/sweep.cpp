#include "runner/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "gcs/gcs.hpp"
#include "obs/trace.hpp"
#include "runner/artifact.hpp"
#include "runner/thread_pool.hpp"
#include "sim/table.hpp"
#include "util/alloc_stats.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace dynvote {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The floor SweepSpec::min_shard_runs == 0 resolves to.
constexpr std::uint64_t kAutoShardFloor = 32;

std::uint64_t shard_floor(std::uint64_t min_shard_runs) {
  return min_shard_runs == 0 ? kAutoShardFloor : min_shard_runs;
}

}  // namespace

// A probe world is warmed through a few partition/merge cycles (so every
// pooled buffer reaches capacity), then only the step_round sections of
// further cycles are measured -- the same slice of work BM_ProtocolRound
// times.
double probe_steady_allocs_per_round(const CaseSpec& cs) {
  if (!alloc_hook_linked() || cs.processes < 2) return -1.0;
  DV_OBS_INC("runner.alloc_probes");

  Gcs gcs = cs.algorithm_factory != nullptr
                ? Gcs(cs.algorithm_factory, cs.processes)
                : Gcs(cs.algorithm, cs.processes);
  ProcessSet lower_half(cs.processes);
  for (ProcessId p = 0; p < cs.processes / 2; ++p) lower_half.insert(p);

  std::uint64_t measured_allocs = 0;
  std::uint64_t measured_rounds = 0;
  const auto settle = [&](bool measure) {
    const std::uint64_t before = thread_allocations();
    std::uint64_t rounds = 0;
    while (gcs.step_round() && rounds < 1000) ++rounds;
    if (measure) {
      measured_allocs += thread_allocations() - before;
      measured_rounds += rounds;
    }
  };
  constexpr int kWarmupCycles = 8;
  constexpr int kMeasuredCycles = 4;
  for (int cycle = 0; cycle < kWarmupCycles + kMeasuredCycles; ++cycle) {
    const bool measure = cycle >= kWarmupCycles;
    gcs.apply_partition(0, lower_half);
    settle(measure);
    gcs.apply_merge(0, 1);
    settle(measure);
  }
  if (measured_rounds == 0) return -1.0;
  return static_cast<double>(measured_allocs) /
         static_cast<double>(measured_rounds);
}

namespace {

/// Spill-arena telemetry scoped to this sweep: the monotone counters are
/// deltas against the sweep-start snapshot, the byte gauges stay absolute
/// (live/peak bytes are states, not flows).
SpillArenaStats arena_delta_since(const SpillArenaStats& base) {
  SpillArenaStats now = spill_arena_merged_stats();
  now.allocs -= base.allocs;
  now.freelist_hits -= base.freelist_hits;
  now.chunk_bytes -= base.chunk_bytes;
  return now;
}

}  // namespace

/// Arm the trace recorder when DV_TRACE asks for it.  Idempotent: tracing
/// armed earlier (by dvdispatch --trace-out or a test) stays armed with
/// its ring sizing.
void maybe_enable_trace_from_env() {
  if (!env_bool("DV_TRACE", false)) return;
  if (obs::trace_enabled()) return;
  obs::trace_enable(
      static_cast<std::size_t>(env_u64("DV_TRACE_BUF", std::uint64_t{1} << 16)));
}

/// Drain this sweep's trace rings and write the dynvote.events.v1 file:
/// to DV_TRACE_OUT verbatim when set, otherwise as TRACE_<name>.events
/// through the artifact directory discipline.  Returns the path written,
/// empty when tracing is off or writing failed/was disabled.
std::string drain_trace_to_artifact(const std::string& sweep_name) {
  if (!obs::trace_enabled()) return {};
  const obs::TraceFile file = obs::trace_drain();
  const std::vector<std::byte> bytes = file.encode();
  if (const auto out = env_string("DV_TRACE_OUT"); out.has_value()) {
    std::ofstream f(*out, std::ios::binary | std::ios::trunc);
    if (!f ||
        !f.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
      DV_LOG_WARN("failed to write trace file " << *out);
      return {};
    }
    return *out;
  }
  const std::string stem = sweep_name.empty() ? "sweep" : sweep_name;
  return write_artifact_bytes("TRACE_" + stem + ".events", bytes);
}

std::size_t jobs_from_env() {
  const unsigned hardware = std::thread::hardware_concurrency();
  const std::uint64_t jobs =
      env_u64("DV_JOBS", hardware == 0 ? 1 : hardware);
  return jobs == 0 ? 1 : static_cast<std::size_t>(jobs);
}

std::string case_label(const SweepCase& sweep_case) {
  const CaseSpec& spec = sweep_case.spec;
  std::ostringstream os;
  os << (sweep_case.algorithm.empty() ? to_string(spec.algorithm)
                                      : sweep_case.algorithm)
     << " p=" << spec.processes << " c=" << spec.changes
     << " r=" << format_double(spec.mean_rounds, 0);
  if (spec.crash_fraction > 0.0) {
    os << " crash=" << format_double(spec.crash_fraction, 2);
  }
  switch (spec.fault_model.kind) {
    case FaultModelKind::kGeometric:
      break;  // the default regime goes unlabeled, as it always has
    case FaultModelKind::kSleepy:
      os << " sleepy[wake=" << format_double(spec.fault_model.wake_bias, 2)
         << ']';
      break;
    case FaultModelKind::kRepairable:
      os << " repair[k=" << spec.fault_model.repair_capacity
         << ",mr=" << format_double(spec.fault_model.repair_mean_rounds, 0)
         << ']';
      break;
    case FaultModelKind::kTrace:
      os << " trace";
      break;
  }
  os << ' ' << to_string(spec.mode);
  return os.str();
}

std::vector<SweepCase> availability_grid(
    const std::vector<AlgorithmKind>& algorithms,
    const std::vector<double>& rates, std::size_t changes, RunMode mode,
    std::uint64_t runs, std::uint64_t base_seed, std::size_t processes) {
  std::vector<SweepCase> cases;
  cases.reserve(algorithms.size() * rates.size());
  for (AlgorithmKind kind : algorithms) {
    for (double rate : rates) {
      SweepCase c;
      c.algorithm = to_string(kind);
      c.spec.algorithm = kind;
      c.spec.processes = processes;
      c.spec.changes = changes;
      c.spec.mean_rounds = rate;
      c.spec.runs = runs;
      c.spec.mode = mode;
      c.spec.base_seed = base_seed;
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

namespace {

/// A contiguous run range of one case claimed by a worker: a whole case
/// (cascading, or no runs) from the unit queue, or a chunk of a fresh-start
/// case claimed from its cursor.
struct WorkUnit {
  std::size_t case_index = 0;
  std::uint64_t first_run = 0;
  std::uint64_t run_count = 0;
};

/// One finished contiguous run range, keyed by its first run index so the
/// case merge can sort into run order regardless of completion order.
struct ShardPartial {
  std::uint64_t first_run = 0;
  CaseResult result;
};

/// Mutable per-case scheduler state; all fields are guarded by the
/// scheduler mutex except where noted.
struct CaseState {
  /// Fresh-start parallel case: next unclaimed run index.
  std::uint64_t next_fresh_run = 0;  // dvlint: guarded_by(scheduler_mutex)
  bool fresh_parallel = false;
  /// partials/compute_seconds are deliberately unannotated: the serial path
  /// and finish_case touch them with the case complete (no other worker
  /// can), not under the scheduler lock.
  std::vector<ShardPartial> partials;
  double compute_seconds = 0.0;
  std::uint64_t finished_runs = 0;   // dvlint: guarded_by(scheduler_mutex)
  std::size_t steals = 0;            // dvlint: guarded_by(scheduler_mutex)
  /// Last worker that claimed a unit of this case; SIZE_MAX = none yet.
  std::size_t last_worker = SIZE_MAX;  // dvlint: guarded_by(scheduler_mutex)
};

}  // namespace

SweepResult run_sweep(const SweepSpec& spec) {
  const auto sweep_start = Clock::now();
  maybe_enable_trace_from_env();
  // Metrics are process-cumulative; the delta scopes the manifest's
  // observability block to this sweep.
  const obs::MetricsSnapshot metrics_base = obs::snapshot_metrics();
  const SpillArenaStats arena_base = spill_arena_merged_stats();
  const std::size_t jobs = spec.jobs != 0 ? spec.jobs : jobs_from_env();
  ProgressSink& progress =
      spec.progress != nullptr ? *spec.progress : default_progress_sink();

  const std::size_t case_count = spec.cases.size();
  SweepResult result;
  result.jobs = jobs;
  result.cases.resize(case_count);

  std::mutex progress_mutex;
  std::size_t cases_done = 0;

  // The probe world is a function of (algorithm, processes) alone, so each
  // pair is probed once per sweep.  A factory case's algorithm has no such
  // key and is probed per case.  The lock is held across the probe, so
  // concurrent finishers of one pair wait for its single probe.
  std::mutex probe_mutex;
  std::map<std::pair<AlgorithmKind, std::size_t>, double>
      probed;  // dvlint: guarded_by(probe_mutex)
  const auto steady_allocs_per_round = [&](const CaseSpec& cs) {
    if (cs.algorithm_factory != nullptr) {
      return probe_steady_allocs_per_round(cs);
    }
    std::lock_guard<std::mutex> lock(probe_mutex);
    const auto key = std::make_pair(cs.algorithm, cs.processes);
    auto it = probed.find(key);
    if (it == probed.end()) {
      it = probed.emplace(key, probe_steady_allocs_per_round(cs)).first;
    }
    return it->second;
  };

  // Called with the scheduler lock NOT held (single-job path) or held only
  // by the finishing worker's bookkeeping; partials are complete by then,
  // so the finishing worker has exclusive access to the whole CaseState.
  const auto finish_case =  // dvlint: ignore(guarded-by)
      [&](std::size_t case_index, CaseState& state) {
    CaseOutcome& outcome = result.cases[case_index];
    outcome.algorithm = spec.cases[case_index].algorithm.empty()
                            ? to_string(spec.cases[case_index].spec.algorithm)
                            : spec.cases[case_index].algorithm;
    outcome.spec = spec.cases[case_index].spec;

    // Merge shard results in run order -- completion order is scheduling
    // noise, run order is the deterministic serial order.
    std::sort(state.partials.begin(), state.partials.end(),
              [](const ShardPartial& a, const ShardPartial& b) {
                return a.first_run < b.first_run;
              });
    outcome.shards = state.partials.size();
    outcome.steals = state.steals;
    if (!state.partials.empty()) {
      outcome.result = std::move(state.partials[0].result);
      for (std::size_t s = 1; s < state.partials.size(); ++s) {
        outcome.result.merge(state.partials[s].result);
      }
    }
    outcome.compute_seconds = state.compute_seconds;
    if (outcome.compute_seconds > 0.0) {
      outcome.runs_per_sec =
          static_cast<double>(outcome.result.runs) / outcome.compute_seconds;
      outcome.rounds_per_sec = static_cast<double>(outcome.result.total_rounds) /
                               outcome.compute_seconds;
      outcome.deliveries_per_sec =
          static_cast<double>(outcome.result.total_deliveries) /
          outcome.compute_seconds;
    }
    outcome.steady_allocs_per_round = steady_allocs_per_round(outcome.spec);

    CaseTelemetry telemetry;
    telemetry.label = case_label(spec.cases[case_index]);
    telemetry.runs = outcome.result.runs;
    telemetry.compute_seconds = outcome.compute_seconds;
    telemetry.runs_per_sec = outcome.runs_per_sec;
    telemetry.invariant_checks = outcome.result.invariant_checks;
    telemetry.availability_percent = outcome.result.availability_percent();

    std::lock_guard<std::mutex> lock(progress_mutex);
    progress.case_done(telemetry, ++cases_done, case_count);
  };

  if (jobs <= 1 || case_count == 0) {
    // Serial path: every case is one unit, in order.
    for (std::size_t i = 0; i < case_count; ++i) {
      CaseState state;
      const auto start = Clock::now();
      {
        // The shard span carries the case label so dvtrace can group the
        // run events underneath it; the label is only materialized when
        // tracing is armed.
        std::optional<obs::TraceSpan> span;
        if (obs::trace_enabled()) {
          span.emplace(case_label(spec.cases[i]), 0, spec.cases[i].spec.runs);
        }
        state.partials.push_back(ShardPartial{0, run_case(spec.cases[i].spec)});
      }
      state.compute_seconds = seconds_since(start);
      DV_OBS_INC("runner.units");
      DV_OBS_RECORD("runner.shard_ms", state.compute_seconds * 1000.0);
      finish_case(i, state);
    }
    result.wall_seconds = seconds_since(sweep_start);
    progress.sweep_done(spec.name.empty() ? "(unnamed sweep)" : spec.name,
                        case_count, result.wall_seconds);
    result.metrics = obs::snapshot_metrics().delta_since(metrics_base);
    result.arena = arena_delta_since(arena_base);
    result.trace_path = drain_trace_to_artifact(spec.name);
    if (!spec.name.empty()) {
      result.artifact_path = write_manifest(spec, result);
    }
    return result;
  }

  // --- Parallel path: a work-stealing scheduler. ---
  //
  // Whole-case units (every cascading case, which threads one world through
  // all its runs) live in a shared deque and go first; fresh-start runs are
  // claimed as dynamically sized chunks straight from per-case cursors.
  // Any idle worker takes whatever is available, so a fresh-start case
  // started by one worker is finished by others (the steal counters record
  // exactly that).
  std::mutex scheduler_mutex;
  std::deque<WorkUnit> unit_queue;  // dvlint: guarded_by(scheduler_mutex)
  std::vector<CaseState> states(case_count);
  bool aborting = false;            // dvlint: guarded_by(scheduler_mutex)

  {
    // No worker thread exists yet; locked to keep guarded-by checkable.
    std::lock_guard<std::mutex> lock(scheduler_mutex);
    for (std::size_t i = 0; i < case_count; ++i) {
      const CaseSpec& cs = spec.cases[i].spec;
      if (cs.mode == RunMode::kFreshStart && cs.runs > 0) {
        states[i].fresh_parallel = true;
      } else {
        unit_queue.push_back(WorkUnit{i, 0, cs.runs});
      }
    }
  }

  // No whole case left: steal a chunk of fresh-start runs.  Chunks shrink
  // as a case drains so stragglers stay balanced.
  const auto claim_fresh_chunk =  // dvlint: requires_lock(scheduler_mutex)
      [&](WorkUnit& out) -> bool {
    for (std::size_t i = 0; i < case_count; ++i) {
      CaseState& state = states[i];
      const std::uint64_t runs = spec.cases[i].spec.runs;
      if (!state.fresh_parallel || state.next_fresh_run >= runs) continue;
      const std::uint64_t remaining = runs - state.next_fresh_run;
      const std::uint64_t chunk = std::min(
          remaining,
          std::max(shard_floor(spec.min_shard_runs),
                   remaining / (static_cast<std::uint64_t>(jobs) * 2)));
      out = WorkUnit{i, state.next_fresh_run, chunk};
      state.next_fresh_run += chunk;
      return true;
    }
    return false;
  };

  // Claim the next unit for `worker`.  Returns false when the sweep has no
  // work left (or is aborting).  Lock is held throughout.
  const auto try_claim =  // dvlint: requires_lock(scheduler_mutex)
      [&](std::size_t worker, WorkUnit& out) -> bool {
    if (aborting) return false;
    if (!unit_queue.empty()) {
      out = unit_queue.front();
      unit_queue.pop_front();
    } else if (!claim_fresh_chunk(out)) {
      return false;
    }
    CaseState& state = states[out.case_index];
    if (state.last_worker != SIZE_MAX && state.last_worker != worker) {
      ++state.steals;
      DV_OBS_INC("runner.steals");
    }
    state.last_worker = worker;
    return true;
  };

  const auto worker_loop = [&](std::size_t worker) {
    std::unique_lock<std::mutex> lock(scheduler_mutex);
    WorkUnit unit;
    while (try_claim(worker, unit)) {
      lock.unlock();
      const std::size_t i = unit.case_index;
      const CaseSpec& cs = spec.cases[i].spec;
      const auto start = Clock::now();
      CaseResult partial;
      {
        // Case-labeled shard span (materialized only when tracing is
        // armed); the run spans emitted by the experiment layer nest
        // underneath it on this thread's timeline.
        std::optional<obs::TraceSpan> span;
        if (obs::trace_enabled()) {
          span.emplace(case_label(spec.cases[i]), unit.first_run,
                       unit.run_count);
        }
        partial = states[i].fresh_parallel
                      ? run_case_shard(cs, unit.first_run, unit.run_count)
                      : run_case(cs);
      }
      const double seconds = seconds_since(start);
      DV_OBS_INC("runner.units");
      DV_OBS_RECORD("runner.shard_ms", seconds * 1000.0);

      lock.lock();
      CaseState& state = states[i];
      state.compute_seconds += seconds;
      state.partials.push_back(ShardPartial{unit.first_run, std::move(partial)});
      state.finished_runs += unit.run_count;
      if (state.finished_runs == cs.runs) {
        // All runs accounted for; no other worker can touch this case.
        lock.unlock();
        finish_case(i, state);
        lock.lock();
      }
    }
  };

  {
    ThreadPool pool(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      pool.submit([&, w] {
        try {
          worker_loop(w);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(scheduler_mutex);
            aborting = true;
          }
          throw;
        }
      });
    }
    pool.wait_idle();
  }

  result.wall_seconds = seconds_since(sweep_start);
  progress.sweep_done(spec.name.empty() ? "(unnamed sweep)" : spec.name,
                      case_count, result.wall_seconds);

  // The pool is joined: worker shards are retired and their rings are
  // quiescent, so both folds below are race-free and complete.
  result.metrics = obs::snapshot_metrics().delta_since(metrics_base);
  result.arena = arena_delta_since(arena_base);
  result.trace_path = drain_trace_to_artifact(spec.name);
  if (!spec.name.empty()) {
    result.artifact_path = write_manifest(spec, result);
  }
  return result;
}

}  // namespace dynvote
