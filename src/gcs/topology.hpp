// Network topology: the partition of processes into connected components.
//
// "A connectivity change is either a network partition, where processes in
// one network component are divided into two smaller components, or a
// merge, where two components are unified to produce one" (thesis §2.2).
// The topology is pure bookkeeping -- delivery scopes and view membership
// derive from it -- and evolves independently of the algorithm under test,
// which is what lets every algorithm see the identical fault sequence.
#pragma once

#include <cstddef>
#include <vector>

#include "core/process_set.hpp"

namespace dynvote {

class Topology {
 public:
  /// All `universe_size` processes start mutually connected.
  explicit Topology(std::size_t universe_size);

  std::size_t universe_size() const { return universe_size_; }
  std::size_t component_count() const { return components_.size(); }
  const ProcessSet& component(std::size_t index) const;
  const std::vector<ProcessSet>& components() const { return components_; }

  /// Index of the component containing `id`.
  std::size_t component_of(ProcessId id) const;

  /// Split component `index`: `moved` (a proper non-empty subset) becomes a
  /// new component appended at the end; the remainder stays at `index`.
  void split(std::size_t index, const ProcessSet& moved);

  /// Merge component `b` into component `a` (a != b); `b` is removed and
  /// later components shift down by one.
  void merge(std::size_t a, std::size_t b);

  /// A partition is feasible iff some component has at least two members.
  bool can_partition() const;
  /// A merge is feasible iff there are at least two components.
  bool can_merge() const { return components_.size() >= 2; }

  /// Indices of components with at least two members.
  std::vector<std::size_t> splittable_components() const;

 private:
  void check_disjoint_cover() const;

  std::size_t universe_size_;
  std::vector<ProcessSet> components_;
};

}  // namespace dynvote
