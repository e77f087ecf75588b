#include "sim/fault_schedule.hpp"

#include <array>
#include <vector>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {

FaultScheduler::FaultScheduler(std::uint64_t seed,
                               double mean_rounds_between_changes,
                               double crash_fraction)
    // dvlint: raw-seed(retagging would shift the pinned geometric baselines)
    : rng_(seed),
      p_(1.0 / (mean_rounds_between_changes + 1.0)),
      crash_fraction_(crash_fraction) {
  DV_REQUIRE(mean_rounds_between_changes >= 0.0,
             "mean rounds between changes must be non-negative");
  DV_REQUIRE(crash_fraction >= 0.0 && crash_fraction <= 1.0,
             "crash fraction must be within [0,1]");
}

void FaultScheduler::save(Encoder& enc) const {
  for (std::uint64_t word : rng_.state()) enc.put_u64_fixed(word);
}

void FaultScheduler::load(Decoder& dec) {
  std::array<std::uint64_t, 4> state;
  for (std::uint64_t& word : state) word = dec.get_u64_fixed();
  rng_.set_state(state);
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
      std::vector<ProcessId> candidates;
      candidates.reserve(alive);
      for (ProcessId p = 0; p < topology.universe_size(); ++p) {
        if (!crashed.contains(p)) candidates.push_back(p);
      }
      change.process = candidates[rng_.below(candidates.size())];
    } else {
      change.kind = ConnectivityChange::Kind::kRecovery;
      const std::vector<ProcessId> candidates = crashed.members();
      change.process = candidates[rng_.below(candidates.size())];
    }
    return change;
  }
  return next_connectivity_change(topology, crashed);
}

ConnectivityChange FaultScheduler::next_connectivity_change(
    const Topology& topology, const ProcessSet& crashed) {
  // Crashed processes sit in singleton components that take no part in
  // connectivity changes.
  std::vector<std::size_t> splittable;
  std::vector<std::size_t> mergeable;
  for (std::size_t i = 0; i < topology.component_count(); ++i) {
    const ProcessSet& comp = topology.component(i);
    if (comp.is_subset_of(crashed)) continue;
    mergeable.push_back(i);
    if (comp.count() >= 2) splittable.push_back(i);
  }
  const bool can_partition = !splittable.empty();
  const bool can_merge = mergeable.size() >= 2;
  DV_REQUIRE(can_partition || can_merge,
             "no feasible connectivity change (single isolated process?)");

  ConnectivityChange change;
  const bool partition = can_partition && (!can_merge || rng_.chance(0.5));

  if (partition) {
    change.kind = ConnectivityChange::Kind::kPartition;
    change.component_a = splittable[rng_.below(splittable.size())];

    std::vector<ProcessId> members =
        topology.component(change.component_a).members();
    const std::size_t moved_count =
        static_cast<std::size_t>(rng_.between(1, members.size() - 1));
    // Partial Fisher-Yates: a uniform random subset of size moved_count.
    change.moved = ProcessSet(topology.universe_size());
    for (std::size_t i = 0; i < moved_count; ++i) {
      const std::size_t j = i + rng_.below(members.size() - i);
      std::swap(members[i], members[j]);
      change.moved.insert(members[i]);
    }
  } else {
    change.kind = ConnectivityChange::Kind::kMerge;
    const std::size_t a = rng_.below(mergeable.size());
    std::size_t b = rng_.below(mergeable.size() - 1);
    if (b >= a) ++b;
    change.component_a = mergeable[a];
    change.component_b = mergeable[b];
  }
  return change;
}

}  // namespace dynvote
