// Randomized fault injection (thesis §2.2).
//
// "The frequency of changes is specified as the mean number of message
// rounds which are successfully executed between two subsequent
// connectivity changes.  The mean is obtained using an appropriate uniform
// probability p, so that a connectivity change is injected at each step
// with probability p."  A mean of r rounds therefore uses p = 1/(r+1); the
// gap before each change is the geometric number of non-change steps.
//
// Each change is a partition or a merge with equal probability among the
// feasible options; the component to affect is uniform among eligible ones,
// and "partitions do not necessarily happen evenly -- the percentage of
// processes which are moved to the new component is determined at random
// each time."
//
// Crucially, the schedule consumes randomness only as a function of the
// seed and the topology trajectory -- which itself never depends on the
// algorithm under test -- so every algorithm sees the identical random
// sequence, as in the thesis.
#pragma once

#include <cstdint>

#include "core/process_set.hpp"
#include "gcs/topology.hpp"
#include "util/rng.hpp"

namespace dynvote {

struct ConnectivityChange {
  enum class Kind {
    kPartition,
    kMerge,
    /// Extension (thesis §5.1 future work): a process crash-stops.
    kCrash,
    /// Extension: a crashed process recovers with its state intact.
    kRecovery,
  };

  Kind kind = Kind::kPartition;
  /// Partition: index of the component to split.  Merge: first component.
  std::size_t component_a = 0;
  /// Merge: second component.  Unused otherwise.
  std::size_t component_b = 0;
  /// Partition: the processes that split away.  Unused otherwise.
  ProcessSet moved;
  /// Crash/recovery: the affected process.
  ProcessId process = kInvalidProcess;
};

class FaultScheduler {
 public:
  /// `mean_rounds_between_changes` >= 0; 0 means back-to-back changes.
  /// `crash_fraction` in [0,1]: fraction of injected faults that are
  /// process crashes/recoveries instead of connectivity changes (0, the
  /// default and the paper's model, draws no extra randomness, so legacy
  /// schedules are bit-identical).
  FaultScheduler(std::uint64_t seed, double mean_rounds_between_changes,
                 double crash_fraction = 0.0);

  /// Number of message rounds to run before injecting the next change.
  std::size_t next_gap();

  /// Draw the next feasible change for `topology`, where `crashed`
  /// processes sit in singleton components and are excluded from
  /// connectivity changes.  Once one live process remains, a draw that
  /// falls to a connectivity change recovers a crashed process instead.
  /// Requires at least one feasible change (a lone process has none).
  ConnectivityChange next_change(const Topology& topology,
                                 const ProcessSet& crashed);

  /// Paper-model overload: nobody crashed.
  ConnectivityChange next_change(const Topology& topology);

  double change_probability() const { return p_; }

 private:
  ConnectivityChange next_connectivity_change(const Topology& topology,
                                              const ProcessSet& crashed);

  Rng rng_;
  double p_;
  double crash_fraction_;
};

}  // namespace dynvote
