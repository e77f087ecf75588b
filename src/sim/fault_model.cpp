#include "sim/fault_model.hpp"

#include <algorithm>
#include <limits>

#include "sim/trace_model.hpp"
#include "util/assert.hpp"

namespace dynvote {

const char* to_string(FaultModelKind kind) {
  switch (kind) {
    case FaultModelKind::kGeometric: return "geometric";
    case FaultModelKind::kSleepy: return "sleepy";
    case FaultModelKind::kRepairable: return "repairable";
    case FaultModelKind::kTrace: return "trace";
  }
  return "unknown";
}

std::optional<FaultModelKind> fault_model_kind_from_string(
    std::string_view name) {
  if (name == "geometric") return FaultModelKind::kGeometric;
  if (name == "sleepy") return FaultModelKind::kSleepy;
  if (name == "repairable") return FaultModelKind::kRepairable;
  if (name == "trace") return FaultModelKind::kTrace;
  return std::nullopt;
}

// ---------------------------------------------------------------- geometric

GeometricFaultModel::GeometricFaultModel(std::uint64_t seed,
                                         double mean_rounds_between_changes,
                                         double crash_fraction)
    : scheduler_(seed, mean_rounds_between_changes, crash_fraction) {}

void GeometricFaultModel::apply_next(Gcs& gcs) {
  const ConnectivityChange change =
      scheduler_.next_change(gcs.topology(), gcs.crashed());
  switch (change.kind) {
    case ConnectivityChange::Kind::kPartition:
      gcs.apply_partition(change.component_a, change.moved);
      break;
    case ConnectivityChange::Kind::kMerge:
      gcs.apply_merge(change.component_a, change.component_b);
      break;
    case ConnectivityChange::Kind::kCrash:
      gcs.apply_crash(change.process);
      break;
    case ConnectivityChange::Kind::kRecovery:
      gcs.apply_recovery(change.process);
      break;
  }
}

// ------------------------------------------------------------------- sleepy

SleepyFaultModel::SleepyFaultModel(std::uint64_t seed,
                                   double mean_rounds_between_changes,
                                   double wake_bias)
    : rng_(seed, StreamTag::kSleepy),
      p_(1.0 / (mean_rounds_between_changes + 1.0)),
      wake_bias_(wake_bias) {
  DV_REQUIRE(mean_rounds_between_changes >= 0.0,
             "mean rounds between changes must be non-negative");
  DV_REQUIRE(wake_bias >= 0.0 && wake_bias <= 1.0,
             "wake bias must be within [0,1]");
}

std::size_t SleepyFaultModel::next_gap() {
  std::size_t gap = 0;
  while (!rng_.chance(p_)) ++gap;
  return gap;
}

void SleepyFaultModel::apply_next(Gcs& gcs) {
  // The GCS's crash set is the sleeper set; the model keeps no copy.
  const ProcessSet& asleep = gcs.crashed();
  const std::size_t universe = gcs.process_count();
  const std::size_t awake = universe - asleep.count();
  const bool can_sleep = awake >= 2;  // never put the last process to sleep
  const bool can_wake = !asleep.empty();
  DV_REQUIRE(can_sleep || can_wake, "no feasible sleepy event");

  const bool wake = can_wake && (!can_sleep || rng_.chance(wake_bias_));
  const ProcessSet awake_set = ProcessSet::full(universe).minus(asleep);
  if (wake) {
    const ProcessId p = asleep.nth_member(rng_.below(asleep.count()));
    // The awake processes always form one component under this model; join
    // it via the component of the lowest awake process.
    gcs.apply_wake(p, awake_set.lowest());
  } else {
    gcs.apply_sleep(awake_set.nth_member(rng_.below(awake)));
  }
}

// --------------------------------------------------------------- repairable

RepairableFaultModel::RepairableFaultModel(std::uint64_t seed,
                                           std::size_t processes,
                                           double mean_rounds_between_changes,
                                           std::uint64_t repair_capacity,
                                           double repair_mean_rounds)
    : rng_(seed, StreamTag::kRepair),
      processes_(processes),
      fail_p_(1.0 / (mean_rounds_between_changes + 1.0)),
      service_p_(1.0 / (repair_mean_rounds + 1.0)),
      capacity_(repair_capacity) {
  DV_REQUIRE(processes >= 2, "the repair model needs at least two processes");
  DV_REQUIRE(mean_rounds_between_changes >= 0.0,
             "mean rounds between changes must be non-negative");
  DV_REQUIRE(repair_capacity >= 1, "the repair shop needs at least one server");
  DV_REQUIRE(repair_mean_rounds >= 0.0,
             "mean repair rounds must be non-negative");
  // Room for every process in the shop, so no failure grows either list.
  in_service_.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(capacity_, processes)));
  queue_.reserve(processes);
}

std::uint64_t RepairableFaultModel::draw_geometric(double p) {
  std::uint64_t gap = 0;
  while (!rng_.chance(p)) ++gap;
  return gap;
}

void RepairableFaultModel::arm_failure() {
  // Never crash the last live process; the next event is then necessarily
  // a repair completion, which re-arms failures.
  if (failure_armed_ || live_count() < 2) return;
  next_failure_at_ = clock_ + draw_geometric(fail_p_);
  failure_armed_ = true;
}

const RepairableFaultModel::Repair* RepairableFaultModel::next_repair() const {
  const Repair* best = nullptr;
  for (const Repair& repair : in_service_) {
    if (best == nullptr || repair.done_at < best->done_at ||
        (repair.done_at == best->done_at && repair.process < best->process)) {
      best = &repair;
    }
  }
  return best;
}

std::size_t RepairableFaultModel::next_gap() {
  arm_failure();
  const Repair* repair = next_repair();
  DV_REQUIRE(failure_armed_ || repair != nullptr,
             "repairable model has no pending event");
  std::uint64_t due = failure_armed_ ? next_failure_at_
                                     : std::numeric_limits<std::uint64_t>::max();
  if (repair != nullptr) due = std::min(due, repair->done_at);
  return static_cast<std::size_t>(due - clock_);
}

void RepairableFaultModel::apply_next(Gcs& gcs) {
  arm_failure();
  const Repair* repair = next_repair();
  // Ties go to the repair: a process coming back cannot be pre-empted by
  // the failure that shares its due time.
  const bool repair_due = repair != nullptr &&
                          (!failure_armed_ || repair->done_at <= next_failure_at_);
  if (repair_due) {
    const Repair done = *repair;
    clock_ = done.done_at;
    in_service_.erase(std::find_if(
        in_service_.begin(), in_service_.end(),
        [&](const Repair& r) { return r.process == done.process; }));
    // Rejoin the live component (lowest live process names it).
    ProcessId into = kInvalidProcess;
    for (ProcessId q = 0; q < processes_; ++q) {
      if (!gcs.crashed().contains(q)) {
        into = q;
        break;
      }
    }
    gcs.apply_wake(done.process, into);
    if (!queue_.empty()) {
      const ProcessId next = queue_.front();
      queue_.erase(queue_.begin());
      in_service_.push_back(
          Repair{next, clock_ + 1 + draw_geometric(service_p_)});
    }
  } else {
    DV_REQUIRE(failure_armed_, "repairable model has no pending event");
    clock_ = next_failure_at_;
    failure_armed_ = false;
    const ProcessSet live = ProcessSet::full(processes_).minus(gcs.crashed());
    const ProcessId victim = live.nth_member(rng_.below(live.count()));
    gcs.apply_crash(victim);
    if (in_service_.size() < capacity_) {
      in_service_.push_back(
          Repair{victim, clock_ + 1 + draw_geometric(service_p_)});
    } else {
      queue_.push_back(victim);
    }
  }
}

// ------------------------------------------------------------------ factory

std::unique_ptr<FaultModel> make_fault_model(
    const FaultModelParams& params, std::uint64_t seed,
    double mean_rounds_between_changes, double crash_fraction,
    std::size_t processes) {
  switch (params.kind) {
    case FaultModelKind::kGeometric:
      return std::make_unique<GeometricFaultModel>(
          seed, mean_rounds_between_changes, crash_fraction);
    case FaultModelKind::kSleepy:
      return std::make_unique<SleepyFaultModel>(
          seed, mean_rounds_between_changes, params.wake_bias);
    case FaultModelKind::kRepairable:
      return std::make_unique<RepairableFaultModel>(
          seed, processes, mean_rounds_between_changes,
          params.repair_capacity, params.repair_mean_rounds);
    case FaultModelKind::kTrace:
      return std::make_unique<TraceFaultModel>(params.trace_json, processes);
  }
  DV_REQUIRE(false, "bad FaultModelKind");
  return nullptr;
}

}  // namespace dynvote
