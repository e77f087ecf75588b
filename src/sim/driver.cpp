#include "sim/driver.hpp"

#include <limits>

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"
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

namespace {

void encode_run_result(Encoder& enc, const RunResult& r) {
  enc.put_bool(r.primary_at_end);
  enc.put_varint(r.observer_ambiguous_at_end);
  enc.put_varint(r.observer_ambiguous_at_changes.size());
  for (std::size_t v : r.observer_ambiguous_at_changes) enc.put_varint(v);
  enc.put_varint(r.rounds_executed);
  enc.put_varint(r.changes_applied);
  enc.put_varint(r.rounds_with_primary);
  enc.put_bool(r.observer_blocked_at_end);
}

RunResult decode_run_result(Decoder& dec) {
  RunResult r;
  r.primary_at_end = dec.get_bool();
  r.observer_ambiguous_at_end = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  if (n > 1'000'000 || n > dec.remaining()) {
    throw DecodeError("implausible per-change sample count");
  }
  r.observer_ambiguous_at_changes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    r.observer_ambiguous_at_changes.push_back(dec.get_varint());
  }
  r.rounds_executed = dec.get_varint();
  r.changes_applied = dec.get_varint();
  r.rounds_with_primary = dec.get_varint();
  r.observer_blocked_at_end = dec.get_bool();
  return r;
}

/// Throws DecodeError unless `p`, a restored active run, is a point at
/// which step_event could have paused under `config`.  step_event stops
/// injecting exactly when change_index reaches the budget, counts every
/// change it applies in both partial fields, and fails a stabilizing run
/// before quiet_rounds reaches its budget.  A run past those points would
/// inject forever or fail for a reason that is not the algorithm's.
void check_restored_progress(const RunProgress& p,
                             const SimulationConfig& config) {
  const bool injecting = p.phase == RunProgress::Phase::kInjecting;
  if (p.change_index > config.changes_per_run ||
      (injecting && p.change_index == config.changes_per_run)) {
    throw DecodeError("restored run is past this simulation's change budget");
  }
  if (p.change_index != p.partial.changes_applied ||
      p.change_index != p.partial.observer_ambiguous_at_changes.size()) {
    throw DecodeError("restored run disagrees with its own change count");
  }
  if (p.quiet_rounds >= config.max_stabilization_rounds) {
    throw DecodeError("restored run is past the stabilization budget");
  }
}

}  // namespace

void Simulation::save(Encoder& enc) const {
  gcs_.save(enc);
  // The fault model writes a named, length-prefixed blob (like the
  // algorithm instances) so a snapshot can never be misread by a
  // simulation running a different model.
  enc.put_string(model_->name());
  Encoder model_state;
  model_->save(model_state);
  const std::vector<std::byte> model_bytes = model_state.take();
  enc.put_bytes(model_bytes);
  checker_.save(enc);
  enc.put_varint(total_changes_);
  enc.put_bool(last_round_active_);

  enc.put_bool(progress_.active);
  enc.put_u8(static_cast<std::uint8_t>(progress_.phase));
  enc.put_varint(progress_.change_index);
  enc.put_bool(progress_.gap_drawn);
  enc.put_varint(progress_.gap_remaining);
  enc.put_varint(progress_.quiet_rounds);
  encode_run_result(enc, progress_.partial);
}

void Simulation::load(Decoder& dec) {
  gcs_.load(dec);
  const std::string model_name = dec.get_string();
  if (model_name != model_->name()) {
    throw DecodeError("snapshot drives fault model \"" + model_name +
                      "\", this simulation runs \"" +
                      std::string(model_->name()) + "\"");
  }
  const std::vector<std::byte> model_bytes = dec.get_bytes();
  Decoder model_state(model_bytes);
  model_->load(model_state);
  model_state.finish();
  checker_.load(dec);
  total_changes_ = dec.get_varint();
  last_round_active_ = dec.get_bool();
  // Re-arm the observability edge detectors from the restored state so a
  // resumed run emits the same transitions a never-paused one would.
  had_primary_ = gcs_.has_primary();
  primary_revision_ = gcs_.revision();
  last_ambiguous_ = observer_info().ambiguous_count;

  progress_.active = dec.get_bool();
  const std::uint8_t raw_phase = dec.get_u8();
  if (raw_phase > static_cast<std::uint8_t>(RunProgress::Phase::kStabilizing)) {
    throw DecodeError("bad run phase in snapshot");
  }
  progress_.phase = static_cast<RunProgress::Phase>(raw_phase);
  progress_.change_index = dec.get_varint();
  progress_.gap_drawn = dec.get_bool();
  progress_.gap_remaining = dec.get_varint();
  progress_.quiet_rounds = dec.get_varint();
  progress_.partial = decode_run_result(dec);
  if (progress_.active) check_restored_progress(progress_, config_);
}

}  // namespace dynvote
