// Pluggable fault models (ROADMAP item 3).
//
// The thesis drives every algorithm with one stochastic regime: geometric
// gaps between random partition/merge events (plus the §5.1 crash
// extension).  A FaultModel abstracts that schedule behind two operations
// -- "how many quiet rounds until the next event?" and "apply the next
// event to the GCS" -- so other participation regimes from the related
// literature plug into the same driver loop and sweep engine:
//
//   geometric    the thesis's model, re-homed verbatim (bit-identical
//                schedules, gated by bench_diff against bench/baselines/);
//   sleepy       TOB-SVD-style sleepy participation: processes fall asleep
//                (graceful leave view) and wake (join view) instead of
//                partitioning;
//   repairable   crashed processes enter a capacity-K repair queue with
//                geometric ("exponential") service, so availability becomes
//                a function of repair rate;
//   trace        replay of a recorded JSON fault schedule
//                (sim/trace_model.hpp).
//
// Every model draws randomness only as a function of its seed and the
// topology trajectory -- which never depends on the algorithm under test --
// so all six algorithms see the identical schedule, exactly as the thesis
// requires.  New models draw from a tagged stream, Rng(seed, StreamTag::k*)
// (util/rng.hpp); the geometric model keeps the raw seed through
// Rng::from_raw_seed (the pinned thesis stream).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "gcs/gcs.hpp"
#include "sim/fault_schedule.hpp"

namespace dynvote {

enum class FaultModelKind : std::uint8_t {
  kGeometric = 0,
  kSleepy = 1,
  kRepairable = 2,
  kTrace = 3,
};

const char* to_string(FaultModelKind kind);
std::optional<FaultModelKind> fault_model_kind_from_string(
    std::string_view name);

/// Model selection plus every model-specific knob, carried by
/// SimulationConfig and CaseSpec.  Unused knobs are ignored (and keep their
/// defaults so equality and hashing stay meaningful).
struct FaultModelParams {
  FaultModelKind kind = FaultModelKind::kGeometric;
  /// Sleepy: probability the next event is a wake when both a sleep and a
  /// wake are feasible.
  double wake_bias = 0.5;
  /// Repairable: servers in the repair shop; failures beyond this wait.
  std::uint64_t repair_capacity = 1;
  /// Repairable: mean rounds a repair takes (geometric service, >= 1).
  double repair_mean_rounds = 8.0;
  /// Trace: the dynvote.trace.v1 document to replay.
  std::string trace_json;

  bool operator==(const FaultModelParams&) const = default;
};

/// A source of fault events.  The driver alternates next_gap() -- run that
/// many message rounds -- with apply_next() until the run's change budget
/// (or the model's schedule) is exhausted.  Models mutate the GCS only
/// through its apply_* surface, and own any state beyond what the GCS
/// already tracks.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Number of message rounds to run before the next event.
  virtual std::size_t next_gap() = 0;

  /// Inject the next event into `gcs`.
  virtual void apply_next(Gcs& gcs) = 0;

  /// True when the schedule has no further events (only the trace model
  /// ever exhausts); the driver then moves straight to stabilization.
  virtual bool exhausted() const { return false; }
};

/// The thesis's regime: geometric gaps, random partition/merge (plus
/// crash/recovery when crash_fraction > 0).  A straight re-homing of the
/// pre-FaultModel driver logic around FaultScheduler -- same raw-seed
/// stream, same draw order -- so schedules are bit-identical to every
/// committed baseline.  Every change it draws can be applied
/// (fault_schedule_test checks every reachable state up to 8 processes).
class GeometricFaultModel final : public FaultModel {
 public:
  GeometricFaultModel(std::uint64_t seed, double mean_rounds_between_changes,
                      double crash_fraction);

  std::size_t next_gap() override { return scheduler_.next_gap(); }
  void apply_next(Gcs& gcs) override;

 private:
  FaultScheduler scheduler_;
};

/// Sleepy participation (TOB-SVD, PAPERS.md): at geometric intervals a
/// uniformly-chosen awake process falls asleep (a graceful leave -- its
/// in-flight messages all escape, unlike a crash) or a sleeper wakes and
/// joins the awake component directly (one join view; its state survived).
/// The GCS's crash set doubles as the sleeper set.  Never kills the last
/// awake process.
class SleepyFaultModel final : public FaultModel {
 public:
  SleepyFaultModel(std::uint64_t seed, double mean_rounds_between_changes,
                   double wake_bias);

  std::size_t next_gap() override;
  void apply_next(Gcs& gcs) override;

 private:
  Rng rng_;
  double p_;
  double wake_bias_;
};

/// Repairable nodes (PBFT-with-repairable-voting-nodes, PAPERS.md):
/// failures arrive at geometric intervals and crash a uniformly-chosen live
/// process, which enters a repair shop with `capacity` servers and
/// geometric ("exponential") service of mean `repair_mean_rounds`; excess
/// failures wait FIFO.  A completed repair wakes the process straight into
/// the live component.  Discrete-event: the model tracks its own clock and
/// due times, so next_gap() is the time to the earliest pending event
/// (repairs beat failures on ties).  Never crashes the last live process.
class RepairableFaultModel final : public FaultModel {
 public:
  RepairableFaultModel(std::uint64_t seed, std::size_t processes,
                       double mean_rounds_between_changes,
                       std::uint64_t repair_capacity,
                       double repair_mean_rounds);

  std::size_t next_gap() override;
  void apply_next(Gcs& gcs) override;

 private:
  struct Repair {
    ProcessId process = kInvalidProcess;
    std::uint64_t done_at = 0;
  };

  std::uint64_t live_count() const {
    return processes_ - in_service_.size() - queue_.size();
  }
  /// Draw a geometric round count with the given per-round stop chance.
  std::uint64_t draw_geometric(double p);
  /// Arm the next failure if none is pending and one is feasible.
  void arm_failure();
  /// Earliest due repair, if any (lowest done_at, then lowest pid).
  const Repair* next_repair() const;

  Rng rng_;
  std::size_t processes_;
  double fail_p_;
  double service_p_;
  std::uint64_t capacity_;
  std::uint64_t clock_ = 0;
  bool failure_armed_ = false;
  std::uint64_t next_failure_at_ = 0;
  std::vector<Repair> in_service_;
  std::vector<ProcessId> queue_;
};

/// Build the model selected by `params`.  `seed` is the simulation seed
/// (models derive their own tagged child streams); the geometric rate
/// parameters feed the geometric, sleepy, and repairable event clocks.
/// Throws DecodeError for a malformed trace before any simulation state
/// exists.
std::unique_ptr<FaultModel> make_fault_model(
    const FaultModelParams& params, std::uint64_t seed,
    double mean_rounds_between_changes, double crash_fraction,
    std::size_t processes);

}  // namespace dynvote
