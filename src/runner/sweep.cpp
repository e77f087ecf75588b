#include "runner/sweep.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.hpp"
#include "runner/artifact.hpp"
#include "sim/table.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace dynvote {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

}  // namespace

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

UnitRun run_unit(const SweepCase& sweep_case, std::uint64_t first_run,
                 std::uint64_t run_count) {
  const auto start = Clock::now();
  UnitRun run;
  {
    // The span carries the case label so dvtrace can group the run events
    // underneath it; the label is only materialized when tracing is armed.
    std::optional<obs::TraceSpan> span;
    if (obs::trace_enabled()) {
      span.emplace(case_label(sweep_case), first_run, run_count);
    }
    run.result = run_case_shard(sweep_case.spec, first_run, run_count);
  }
  run.seconds = seconds_since(start);
  return run;
}

UnitBoard::UnitBoard(const SweepSpec& spec, std::size_t workers)
    : spec_(spec),
      progress_(spec.progress != nullptr ? *spec.progress
                                         : default_progress_sink()) {
  const auto whole = [](const CaseSpec& cs) {
    return cs.mode == RunMode::kCascading || cs.runs == 0;
  };
  for (std::size_t i = 0; i < spec.cases.size(); ++i) {
    const CaseSpec& cs = spec.cases[i].spec;
    if (whole(cs)) units_.push_back(SweepUnit{i, 0, cs.runs});
  }
  // Chunks several times smaller than a worker's fair share of a case keep
  // stragglers balanced; the floor bounds the per-unit overhead.  Dividing
  // twice is runs / (4 * workers) without overflowing on a huge DV_JOBS.
  const std::uint64_t floor =
      spec.min_shard_runs == 0 ? kAutoShardFloor : spec.min_shard_runs;
  const std::uint64_t share = std::max<std::uint64_t>(4, workers);
  for (std::size_t i = 0; i < spec.cases.size(); ++i) {
    const CaseSpec& cs = spec.cases[i].spec;
    if (whole(cs)) continue;
    const std::uint64_t size = std::max(floor, cs.runs / share / 4);
    for (std::uint64_t first = 0; first < cs.runs; first += size) {
      units_.push_back(SweepUnit{i, first, std::min(size, cs.runs - first)});
    }
  }
  reports_.lock()->outcomes.resize(spec.cases.size());
}

UnitBoard::Schedule::Schedule(const UnitBoard& board)
    : board_(board),
      state_(board.unit_count()),
      cases_(board.spec_.cases.size()) {
  for (std::size_t id = 0; id < board.unit_count(); ++id) {
    pending_.push_back(id);
  }
}

std::optional<std::size_t> UnitBoard::Schedule::claim(std::size_t holder) {
  while (!pending_.empty()) {
    const std::size_t id = pending_.front();
    pending_.pop_front();
    // Lazy delete: a straggler's result can finish a unit while its
    // re-queued id still waits here; leasing that copy would execute and
    // merge the unit twice.
    if (state_[id].done) continue;
    state_[id].holder = holder;
    CaseState& state = cases_[board_.unit(id).case_index];
    if (state.last_holder != kNoHolder && state.last_holder != holder) {
      ++state.collected.steals;
    }
    state.last_holder = holder;
    return id;
  }
  return std::nullopt;
}

void UnitBoard::Schedule::requeue(std::size_t id) {
  DV_REQUIRE(!state_[id].done && state_[id].holder != kNoHolder,
             "only a claimed, unfinished unit can be re-queued");
  state_[id].holder = kNoHolder;
  pending_.push_back(id);
}

UnitBoard::Accepted UnitBoard::Schedule::accept(std::size_t id,
                                                CaseResult&& result,
                                                double seconds) {
  if (state_[id].done) return Accepted{};
  state_[id].done = true;
  state_[id].holder = kNoHolder;
  const SweepUnit& unit = board_.unit(id);
  CaseState& state = cases_[unit.case_index];
  state.collected.partials.push_back(
      Partial{unit.first_run, std::move(result)});
  state.collected.compute_seconds += seconds;
  state.finished_runs += unit.run_count;
  if (state.finished_runs < board_.spec_.cases[unit.case_index].spec.runs) {
    return Accepted{true, std::nullopt};
  }
  ++cases_done_;
  // No other unit of this case remains, so the thread that completed it
  // owns its partials from here on.
  state.collected.case_index = unit.case_index;
  return Accepted{true, std::move(state.collected)};
}

void UnitBoard::finish_case(CompletedCase&& done) {
  const SweepCase& sweep_case = spec_.cases[done.case_index];
  CaseOutcome outcome;
  outcome.algorithm = sweep_case.algorithm.empty()
                          ? to_string(sweep_case.spec.algorithm)
                          : sweep_case.algorithm;
  outcome.spec = sweep_case.spec;

  // Merge in run order -- completion order is scheduling noise, run order
  // is the deterministic serial order.
  std::vector<Partial>& partials = done.partials;
  std::sort(partials.begin(), partials.end(),
            [](const Partial& a, const Partial& b) {
              return a.first_run < b.first_run;
            });
  outcome.shards = partials.size();
  outcome.steals = done.steals;
  outcome.result = std::move(partials[0].result);
  for (std::size_t s = 1; s < partials.size(); ++s) {
    outcome.result.merge(partials[s].result);
  }
  outcome.compute_seconds = done.compute_seconds;

  CaseTelemetry telemetry;
  telemetry.label = case_label(sweep_case);
  telemetry.runs = outcome.result.runs;
  telemetry.compute_seconds = outcome.compute_seconds;
  if (outcome.compute_seconds > 0.0) {
    telemetry.runs_per_sec =
        static_cast<double>(outcome.result.runs) / outcome.compute_seconds;
  }
  telemetry.invariant_checks = outcome.result.invariant_checks;
  telemetry.availability_percent = outcome.result.availability_percent();

  const auto reports = reports_.lock();
  reports->outcomes[done.case_index] = std::move(outcome);
  progress_.case_done(telemetry, ++reports->cases_reported,
                      spec_.cases.size());
}

std::vector<CaseOutcome> UnitBoard::take_outcomes() {
  return std::move(reports_.lock()->outcomes);
}

Clock::time_point begin_sweep() {
  const Clock::time_point start = Clock::now();
  maybe_enable_trace_from_env();
  return start;
}

void end_sweep(const SweepSpec& spec, Clock::time_point start,
               SweepResult& result) {
  result.wall_seconds = seconds_since(start);
  // The unit-running threads have stopped, so their trace rings are
  // quiescent and the drain is complete.
  result.trace_path = drain_trace_to_artifact(spec.name);
  ProgressSink& progress =
      spec.progress != nullptr ? *spec.progress : default_progress_sink();
  progress.sweep_done(spec.name.empty() ? "(unnamed sweep)" : spec.name,
                      spec.cases.size(), result.wall_seconds);
  if (!spec.name.empty()) {
    result.artifact_path = write_manifest(spec, result);
  }
}

SweepResult run_sweep(const SweepSpec& spec) {
  const Clock::time_point start = begin_sweep();
  const std::size_t jobs = spec.jobs != 0 ? spec.jobs : jobs_from_env();

  UnitBoard board(spec, jobs);
  struct Shared {
    UnitBoard::Schedule schedule;
    std::exception_ptr failure;
  };
  Guarded<Shared> shared(UnitBoard::Schedule(board), nullptr);

  const auto work = [&](std::size_t worker) {
    try {
      for (;;) {
        std::optional<std::size_t> id;
        {
          const auto s = shared.lock();
          if (s->failure) return;
          id = s->schedule.claim(worker);
        }
        if (!id.has_value()) return;
        const SweepUnit& unit = board.unit(*id);
        UnitRun run = run_unit(spec.cases[unit.case_index], unit.first_run,
                               unit.run_count);
        UnitBoard::Accepted accepted = shared.lock()->schedule.accept(
            *id, std::move(run.result), run.seconds);
        // The case's last unit is in, so no other worker touches it again.
        if (accepted.completed) {
          board.finish_case(std::move(*accepted.completed));
        }
      }
    } catch (...) {
      const auto s = shared.lock();
      if (!s->failure) s->failure = std::current_exception();
    }
  };

  // The caller is worker 0.  A worker beyond the board's units would only
  // find it empty, so at most one thread starts per unit.
  const std::size_t workers = std::min(jobs, board.unit_count());
  std::vector<std::thread> helpers;
  try {
    for (std::size_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
  } catch (...) {
    // A thread that fails to start fails the sweep; the helpers already
    // running see the failure and stop, so they can still be joined.
    const auto s = shared.lock();
    if (!s->failure) s->failure = std::current_exception();
  }
  work(0);
  for (std::thread& t : helpers) t.join();

  if (const std::exception_ptr failure = shared.lock()->failure) {
    std::rethrow_exception(failure);
  }
  SweepResult result;
  result.jobs = jobs;
  result.cases = board.take_outcomes();
  end_sweep(spec, start, result);
  return result;
}

}  // namespace dynvote
