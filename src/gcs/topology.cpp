#include "gcs/topology.hpp"

#include "util/assert.hpp"

namespace dynvote {

Topology::Topology(std::size_t universe_size)
    : universe_size_(universe_size) {
  DV_REQUIRE(universe_size >= 1, "topology needs at least one process");
  components_.push_back(ProcessSet::full(universe_size));
}

const ProcessSet& Topology::component(std::size_t index) const {
  DV_REQUIRE(index < components_.size(), "component index out of range");
  return components_[index];
}

std::size_t Topology::component_of(ProcessId id) const {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].contains(id)) return i;
  }
  DV_ASSERT_MSG(false, "process not in any component");
  return 0;
}

void Topology::split(std::size_t index, const ProcessSet& moved) {
  DV_REQUIRE(index < components_.size(), "component index out of range");
  ProcessSet& comp = components_[index];
  DV_REQUIRE(!moved.empty(), "split must move at least one process");
  DV_REQUIRE(moved.is_subset_of(comp), "moved set must come from the component");
  DV_REQUIRE(moved.count() < comp.count(), "split must leave a remainder");

  comp = comp.minus(moved);
  components_.push_back(moved);
  check_disjoint_cover();
}

void Topology::merge(std::size_t a, std::size_t b) {
  DV_REQUIRE(a < components_.size() && b < components_.size(),
             "component index out of range");
  DV_REQUIRE(a != b, "cannot merge a component with itself");
  components_[a] = components_[a].united_with(components_[b]);
  components_.erase(components_.begin() + static_cast<std::ptrdiff_t>(b));
  check_disjoint_cover();
}

bool Topology::can_partition() const {
  for (const ProcessSet& c : components_) {
    if (c.count() >= 2) return true;
  }
  return false;
}

std::vector<std::size_t> Topology::splittable_components() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].count() >= 2) out.push_back(i);
  }
  return out;
}

void Topology::check_disjoint_cover() const {
  ProcessSet seen(universe_size_);
  std::size_t total = 0;
  for (const ProcessSet& c : components_) {
    DV_ASSERT_MSG(!c.empty(), "empty component");
    DV_ASSERT_MSG(!seen.intersects(c), "components overlap");
    seen = seen.united_with(c);
    total += c.count();
  }
  DV_ASSERT_MSG(total == universe_size_, "components do not cover universe");
}

}  // namespace dynvote
