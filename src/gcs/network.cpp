#include "gcs/network.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace dynvote {

void Network::send(ProcessId sender, ProcessSet scope, Message message) {
  DV_REQUIRE(scope.contains(sender), "sender must be inside its scope");
  in_flight_.push_back(Multicast{sender, std::move(scope), std::move(message)});
}

bool Network::group_by_scope(const std::vector<Multicast>& multicasts) {
  // At most one group per multicast: reserving that keeps a world's first
  // rounds from growing the vector step by step.
  groups_.clear();
  groups_.reserve(multicasts.size());
  if (multicasts.empty()) return true;
  ProcessSet covered(multicasts.front().scope.universe_size());
  for (std::size_t i = 0; i < multicasts.size(); ++i) {
    const Multicast& m = multicasts[i];
    if (covered.contains(m.sender)) {
      const auto group = std::find_if(
          groups_.begin(), groups_.end(), [&](const Group& g) {
            return multicasts[g.first].scope.contains(m.sender);
          });
      if (!(m.scope == multicasts[group->first].scope)) return false;
      continue;
    }
    if (covered.intersects(m.scope)) return false;
    covered.insert_all(m.scope);
    groups_.push_back(Group{i});
  }
  return true;
}

std::size_t Network::deliver_all(DeliverFn deliver) {
  DV_REQUIRE(group_by_scope(in_flight_),
             "in-flight scopes must be equal or disjoint");
  // Swap out first: deliveries can trigger polls in a driver that sends new
  // messages, and those belong to the *next* round.  The staging buffer is
  // a member so its capacity survives: sends during delivery refill
  // in_flight_ (which holds last round's capacity), and the steady state
  // round loop never allocates.  The swap moves no element, so the groups
  // still index the round's multicasts.
  batch_scratch_.swap(in_flight_);

  // Lay the groups' batches out back to back, each in send order.
  batch_.clear();
  batch_.reserve(batch_scratch_.size());
  for (Group& g : groups_) {
    const ProcessSet& scope = batch_scratch_[g.first].scope;
    g.begin = batch_.size();
    for (std::size_t i = g.first; i < batch_scratch_.size(); ++i) {
      const Multicast& m = batch_scratch_[i];
      if (scope.contains(m.sender)) {
        batch_.push_back(Delivery{m.sender, &m.message});
      }
    }
    g.size = batch_.size() - g.begin;
  }

  std::size_t deliveries = 0;
  for (const Group& g : groups_) {
    const ProcessSet& scope = batch_scratch_[g.first].scope;
    deliver(std::span<const Delivery>(batch_).subspan(g.begin, g.size), scope);
    deliveries += g.size * scope.count();
  }
  batch_scratch_.clear();
  return deliveries;
}

void Network::flush_for_partition(const ProcessSet& component,
                                  const ProcessSet& side_a,
                                  const ProcessSet& side_b,
                                  DeliverFn deliver, CrossDeliveryFn crosses) {
  // Flushed multicasts stay where they are in in_flight_ until the batches
  // pointing at them have been delivered; only the kept ones move.
  batch_.clear();
  batch_.reserve(in_flight_.size());
  side_b_batch_.clear();
  side_b_batch_.reserve(in_flight_.size());
  kept_scratch_.clear();
  for (Multicast& m : in_flight_) {
    if (!(m.scope == component)) {
      kept_scratch_.push_back(std::move(m));
      continue;
    }
    const bool sender_on_a = side_a.contains(m.sender);
    DV_ASSERT_MSG(sender_on_a || side_b.contains(m.sender),
                  "sender on neither side of split");
    std::vector<Delivery>& near_side = sender_on_a ? batch_ : side_b_batch_;
    std::vector<Delivery>& far_side = sender_on_a ? side_b_batch_ : batch_;
    const Delivery d{m.sender, &m.message};
    near_side.push_back(d);
    if (crosses(m.sender)) far_side.push_back(d);
  }
  if (!batch_.empty()) deliver(batch_, side_a);
  if (!side_b_batch_.empty()) deliver(side_b_batch_, side_b);
  in_flight_.swap(kept_scratch_);
  kept_scratch_.clear();
}

void Network::flush_for_merge(const ProcessSet& component, DeliverFn deliver) {
  batch_.clear();
  batch_.reserve(in_flight_.size());
  kept_scratch_.clear();
  for (Multicast& m : in_flight_) {
    if (!(m.scope == component)) {
      kept_scratch_.push_back(std::move(m));
      continue;
    }
    batch_.push_back(Delivery{m.sender, &m.message});
  }
  if (!batch_.empty()) deliver(batch_, component);
  in_flight_.swap(kept_scratch_);
  kept_scratch_.clear();
}

}  // namespace dynvote
