#include "sim/fault_schedule.hpp"

#include <array>
#include <utility>

#include "util/assert.hpp"

namespace dynvote {

FaultScheduler::FaultScheduler(std::uint64_t seed,
                               double mean_rounds_between_changes,
                               double crash_fraction)
    // The raw seed, not a tagged stream: retagging would shift the pinned
    // geometric baselines.
    : rng_(Rng::from_raw_seed(seed)),
      p_(1.0 / (mean_rounds_between_changes + 1.0)),
      crash_fraction_(crash_fraction) {
  DV_REQUIRE(mean_rounds_between_changes >= 0.0,
             "mean rounds between changes must be non-negative");
  DV_REQUIRE(crash_fraction >= 0.0 && crash_fraction <= 1.0,
             "crash fraction must be within [0,1]");
}

std::size_t FaultScheduler::next_gap() {
  std::size_t gap = 0;
  while (!rng_.chance(p_)) ++gap;
  return gap;
}

ConnectivityChange FaultScheduler::next_change(const Topology& topology) {
  return next_change(topology, ProcessSet(topology.universe_size()));
}

ConnectivityChange FaultScheduler::next_change(const Topology& topology,
                                               const ProcessSet& crashed) {
  // The paper's model (crash_fraction == 0) must consume randomness
  // exactly as before, so the crash branch draws nothing in that case.
  const bool process_fault =
      crash_fraction_ > 0.0 && rng_.chance(crash_fraction_);
  const std::size_t alive = topology.universe_size() - crashed.count();
  const bool can_crash = alive >= 2;  // never kill the last process
  const bool can_recover = !crashed.empty();
  // Crashed processes sit in singleton components, so once one live
  // process remains no connectivity change is feasible: a connectivity
  // coin then falls back to a recovery.
  if ((process_fault || !can_crash) && (can_crash || can_recover)) {
    const bool crash = can_crash && (!can_recover || rng_.chance(0.5));
    ConnectivityChange change;
    if (crash) {
      change.kind = ConnectivityChange::Kind::kCrash;
      // Uniform over alive processes.
      change.process = ProcessSet::full(topology.universe_size())
                           .minus(crashed)
                           .nth_member(rng_.below(alive));
    } else {
      change.kind = ConnectivityChange::Kind::kRecovery;
      change.process = crashed.nth_member(rng_.below(crashed.count()));
    }
    return change;
  }
  return next_connectivity_change(topology, crashed);
}

ConnectivityChange FaultScheduler::next_connectivity_change(
    const Topology& topology, const ProcessSet& crashed) {
  // Crashed processes sit in singleton components that take no part in
  // connectivity changes.  A component with a live member can merge, and
  // one of at least two members can split; the draws pick among them by
  // rank, in index order.
  const auto mergeable = [&](const ProcessSet& comp) {
    return !comp.is_subset_of(crashed);
  };
  const auto splittable = [&](const ProcessSet& comp) {
    return mergeable(comp) && comp.count() >= 2;
  };
  // Index of the component of rank `rank` among those that `eligible`.
  const auto nth_component = [&](const auto& eligible, std::size_t rank) {
    for (std::size_t i = 0;; ++i) {
      if (eligible(topology.components()[i]) && rank-- == 0) return i;
    }
  };
  std::size_t splittable_count = 0;
  std::size_t mergeable_count = 0;
  for (const ProcessSet& comp : topology.components()) {
    if (!mergeable(comp)) continue;
    ++mergeable_count;
    if (comp.count() >= 2) ++splittable_count;
  }
  const bool can_partition = splittable_count > 0;
  const bool can_merge = mergeable_count >= 2;
  DV_REQUIRE(can_partition || can_merge,
             "no feasible connectivity change (single isolated process?)");

  ConnectivityChange change;
  const bool partition = can_partition && (!can_merge || rng_.chance(0.5));

  if (partition) {
    change.kind = ConnectivityChange::Kind::kPartition;
    change.component_a =
        nth_component(splittable, rng_.below(splittable_count));

    std::array<ProcessId, ProcessSet::kMaxUniverse> members;
    std::size_t size = 0;
    topology.component(change.component_a).for_each([&](ProcessId p) {
      members[size++] = p;
    });
    const std::size_t moved_count =
        static_cast<std::size_t>(rng_.between(1, size - 1));
    // Partial Fisher-Yates: a uniform random subset of size moved_count.
    change.moved = ProcessSet(topology.universe_size());
    for (std::size_t i = 0; i < moved_count; ++i) {
      const std::size_t j = i + rng_.below(size - i);
      std::swap(members[i], members[j]);
      change.moved.insert(members[i]);
    }
  } else {
    change.kind = ConnectivityChange::Kind::kMerge;
    const std::size_t a = rng_.below(mergeable_count);
    std::size_t b = rng_.below(mergeable_count - 1);
    if (b >= a) ++b;
    change.component_a = nth_component(mergeable, a);
    change.component_b = nth_component(mergeable, b);
  }
  return change;
}

}  // namespace dynvote
