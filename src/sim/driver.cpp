#include "sim/driver.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace dynvote {

namespace {
Gcs make_gcs(const SimulationConfig& config) {
  const GcsOptions options{.measure_wire_sizes = config.measure_wire_sizes,
                           .delivery_seed =
                               child_seed(config.seed, StreamTag::kDelivery)};
  if (config.algorithm_factory) {
    return Gcs(config.algorithm_factory, config.processes, options);
  }
  return Gcs(config.algorithm, config.processes, options);
}
}  // namespace

Simulation::Simulation(const SimulationConfig& config)
    : config_(config),
      gcs_(make_gcs(config)),
      model_(make_fault_model(config.fault_model, config.seed,
                              config.mean_rounds_between_changes,
                              config.crash_fraction, config.processes)),
      checker_(gcs_) {
  DV_REQUIRE(config.processes >= 2, "the study needs at least two processes");
}

void Simulation::step_round() {
  last_round_active_ = gcs_.step_round();
  if (config_.check_invariants) checker_.check(gcs_);
}

void Simulation::apply_next_fault() {
  model_->apply_next(gcs_);
  ++total_changes_;
  if (config_.check_invariants) checker_.check(gcs_);
  // A fault installs views, and view_changed stages protocol traffic that
  // only surfaces at the next round's poll -- the system must be presumed
  // active until a full round proves otherwise.
  last_round_active_ = true;
}

void Simulation::count_round(RunResult& result) {
  step_round();
  ++result.rounds_executed;
  const bool primary = gcs_.revision() == primary_revision_
                           ? had_primary_
                           : gcs_.has_primary();
  primary_revision_ = gcs_.revision();
  if (primary) ++result.rounds_with_primary;
  // Edge-detect availability regained: the instant marks the round index
  // within the run and the change count so far.
  if (primary && !had_primary_) {
    DV_TRACE_INSTANT("primary_formed", result.rounds_executed, total_changes_);
  }
  had_primary_ = primary;
}

void Simulation::note_ambiguity_sample(std::size_t ambiguous_count) {
  if (ambiguous_count < last_ambiguous_) {
    DV_TRACE_INSTANT("session_resolved", last_ambiguous_ - ambiguous_count,
                     ambiguous_count);
  }
  last_ambiguous_ = ambiguous_count;
}

bool Simulation::step_event() {
  RunResult& result = progress_.partial;

  if (progress_.phase == RunProgress::Phase::kInjecting) {
    // A finite schedule (trace replay) may run dry before the change
    // budget; the run then stabilizes early.  Checked only between events
    // -- a drawn gap means an event is still pending.
    if (!progress_.gap_drawn && model_->exhausted()) {
      progress_.phase = RunProgress::Phase::kStabilizing;
      progress_.quiet_rounds = 0;
      return false;
    }
    if (!progress_.gap_drawn) {
      progress_.gap_remaining = model_->next_gap();
      progress_.gap_drawn = true;
    }
    if (progress_.gap_remaining > 0) {
      --progress_.gap_remaining;
      count_round(result);
      return false;
    }
    const std::size_t ambiguous_at_change = observer_info().ambiguous_count;
    result.observer_ambiguous_at_changes.push_back(ambiguous_at_change);
    note_ambiguity_sample(ambiguous_at_change);
    apply_next_fault();
    ++result.changes_applied;
    progress_.gap_drawn = false;
    if (++progress_.change_index == config_.changes_per_run) {
      progress_.phase = RunProgress::Phase::kStabilizing;
      progress_.quiet_rounds = 0;
    }
    return false;
  }

  // Stabilization: run rounds uninterrupted until a full round passes with
  // no delivery and no send.
  count_round(result);
  ++progress_.quiet_rounds;
  if (last_round_active_) {
    DV_ASSERT_MSG(progress_.quiet_rounds < config_.max_stabilization_rounds,
                  "system failed to quiesce within the stabilization budget");
    return false;
  }

  result.primary_at_end = gcs_.has_primary();
  const AlgorithmDebugInfo observer = observer_info();
  result.observer_ambiguous_at_end = observer.ambiguous_count;
  result.observer_blocked_at_end = observer.blocked;
  note_ambiguity_sample(observer.ambiguous_count);
  return true;
}

std::optional<RunResult> Simulation::run_events(std::size_t max_events) {
  if (!progress_.active) {
    progress_ = RunProgress{};
    progress_.active = true;
    progress_.partial.observer_ambiguous_at_changes.reserve(
        config_.changes_per_run);
    if (config_.changes_per_run == 0) {
      progress_.phase = RunProgress::Phase::kStabilizing;
    }
  }
  for (std::size_t e = 0; e < max_events; ++e) {
    ++events_;
    if (step_event()) {
      progress_.active = false;
      return std::move(progress_.partial);
    }
  }
  return std::nullopt;
}

RunResult Simulation::run_once() {
  DV_REQUIRE(!progress_.active,
             "run_once called with a paused run in progress");
  auto result = run_events(std::numeric_limits<std::size_t>::max());
  DV_ASSERT(result.has_value());
  return *std::move(result);
}

}  // namespace dynvote
