// The driver loop (thesis §2.2).
//
// "The testing system begins each simulation with all the processes
// mutually connected.  The processes are then allowed to exchange messages
// while the driver loop injects connectivity changes with the appropriate
// probability.  Once the desired number of changes have been introduced,
// the driver loop allows the processes to exchange messages without
// further interruptions until the system reaches a stable state."
//
// One Simulation instance supports both test modes: construct fresh per run
// for the "fresh start" figures, or call run_once() repeatedly on the same
// instance for the "cascading" figures (each run starts in the state at
// which the previous one ended).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gcs/gcs.hpp"
#include "sim/fault_model.hpp"
#include "sim/invariants.hpp"

namespace dynvote {

struct SimulationConfig {
  AlgorithmKind algorithm = AlgorithmKind::kYkd;
  /// When set, overrides `algorithm`: instances come from this factory
  /// (custom options, research algorithms plugged into the framework).
  Gcs::AlgorithmFactory algorithm_factory;
  std::size_t processes = 64;
  /// Connectivity changes injected per run (the figures use 2, 6, 12).
  std::size_t changes_per_run = 6;
  /// Mean message rounds between changes (the figures sweep 0..12).
  double mean_rounds_between_changes = 4.0;
  /// Extension (thesis §5.1): fraction of injected faults that are process
  /// crashes/recoveries rather than connectivity changes.  0 = the paper's
  /// model, with bit-identical schedules.  (Geometric model only.)
  double crash_fraction = 0.0;
  /// Which fault model drives the run and its model-specific knobs; the
  /// default geometric model reproduces the thesis's schedules exactly.
  FaultModelParams fault_model;
  std::uint64_t seed = 1;
  /// Run the safety checker after every round and change.
  bool check_invariants = true;
  /// Encode payloads to record wire sizes (slower).
  bool measure_wire_sizes = false;
  /// Stabilization must quiesce within this many rounds; exceeding it means
  /// an algorithm chatters forever and is reported as an error.
  std::size_t max_stabilization_rounds = 4096;
};

struct RunResult {
  /// Did the run end with a primary component present?  The headline
  /// availability metric of every figure.
  bool primary_at_end = false;
  /// Ambiguous sessions the observer retains at the stable end (Fig. 4-7).
  std::size_t observer_ambiguous_at_end = 0;
  /// Ambiguous sessions the observer held at each injected change, i.e.
  /// what it must ship over the network (Fig. 4-8).
  std::vector<std::size_t> observer_ambiguous_at_changes;
  std::size_t rounds_executed = 0;
  std::size_t changes_applied = 0;
  /// Rounds during which some primary component existed -- an in-run
  /// availability measure, finer than the end-of-run flag (interrupted
  /// attempts cost availability *during* the turbulence too).
  std::size_t rounds_with_primary = 0;
  /// Observer blocked (wants to act, lacks quorum/members) at the end.
  bool observer_blocked_at_end = false;

  bool operator==(const RunResult&) const = default;
};

/// Where a paused run stands, so run_events resumes it exactly.
struct RunProgress {
  enum class Phase : std::uint8_t {
    /// Still injecting the run's connectivity changes.
    kInjecting = 0,
    /// All changes in; running rounds until the system quiesces.
    kStabilizing = 1,
  };

  /// A run is mid-flight (run_events stopped on its budget, not run end).
  bool active = false;
  Phase phase = Phase::kInjecting;
  /// Changes applied so far in this run.
  std::size_t change_index = 0;
  /// The gap before change `change_index` was already drawn from the fault
  /// stream (the draw happens lazily, once per change).
  bool gap_drawn = false;
  std::size_t gap_remaining = 0;
  std::size_t quiet_rounds = 0;
  /// Counters accumulated so far in this run.
  RunResult partial;
};

class Simulation {
 public:
  explicit Simulation(const SimulationConfig& config);

  /// Inject `changes_per_run` changes at the configured rate, stabilize,
  /// and report.  Callable repeatedly (cascading mode).
  RunResult run_once();

  /// Resumable form of run_once: execute at most `max_events` simulation
  /// events -- one event is one message round or one change application --
  /// and return the RunResult if the run completed, std::nullopt if it was
  /// paused mid-run (the next call continues it).  A run paused at event k
  /// and resumed is bit-identical to one that never paused: run_once()
  /// itself is run_events(no limit).
  std::optional<RunResult> run_events(std::size_t max_events);

  /// Events run since construction, over every run.  A world is a pure
  /// function of its configuration, so this count names its whole state
  /// (sim/snapshot.hpp replays to it).
  std::uint64_t events() const { return events_; }

  /// True while a run started by run_events is paused mid-run.
  bool run_in_progress() const { return progress_.active; }

  const SimulationConfig& config() const { return config_; }
  const Gcs& gcs() const { return gcs_; }
  Gcs& gcs() { return gcs_; }
  std::uint64_t total_changes() const { return total_changes_; }
  std::uint64_t invariant_checks() const { return checker_.checks_performed(); }

 private:
  void apply_next_fault();
  void step_round();
  /// Execute one event; returns true when it completed the active run.
  bool step_event();
  /// step_round plus the shared per-round accounting (availability counters
  /// and the primary_formed trace edge).
  void count_round(RunResult& result);
  /// Record an observer ambiguity sample; a drop since the previous sample
  /// means sessions were resolved (observability only).
  void note_ambiguity_sample(std::size_t ambiguous_count);
  /// The observer's state, read through the const accessor: a read is not
  /// input (Gcs::algorithm).
  AlgorithmDebugInfo observer_info() const {
    return gcs_.algorithm(kObserver).debug_info();
  }

  /// The process whose ambiguous-session counts are sampled (thesis: "the
  /// statistics were collected by one of the processes").
  static constexpr ProcessId kObserver = 0;

  SimulationConfig config_;
  Gcs gcs_;
  std::unique_ptr<FaultModel> model_;
  InvariantChecker checker_;
  std::uint64_t total_changes_ = 0;
  std::uint64_t events_ = 0;
  bool last_round_active_ = true;
  RunProgress progress_;
  /// has_primary() after the last round: the primary_formed trace edge.
  bool had_primary_ = true;
  /// The Gcs revision had_primary_ was read at (0: none).  While the world
  /// keeps that revision, had_primary_ is still its has_primary().
  std::uint64_t primary_revision_ = 0;
  /// The observer's last ambiguity sample: the session_resolved trace edge.
  std::size_t last_ambiguous_ = 0;
};

}  // namespace dynvote
