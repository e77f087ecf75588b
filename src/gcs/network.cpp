#include "gcs/network.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {

void Network::send(ProcessId sender, ProcessSet scope, Message message) {
  DV_REQUIRE(scope.contains(sender), "sender must be inside its scope");
  in_flight_.push_back(Multicast{sender, std::move(scope), std::move(message)});
}

std::size_t Network::deliver_all(DeliverFn deliver) {
  // Swap out first: deliveries can trigger polls in a driver that sends new
  // messages, and those belong to the *next* round.  The batch buffer is a
  // member so its capacity survives: sends during delivery refill
  // in_flight_ (which holds last round's batch capacity), and the steady
  // state round loop never allocates.
  batch_scratch_.swap(in_flight_);
  std::size_t deliveries = 0;
  for (const Multicast& m : batch_scratch_) {
    deliver(m.message, m.sender, m.scope);
    deliveries += m.scope.count();
  }
  batch_scratch_.clear();
  return deliveries;
}

void Network::flush_for_partition(const ProcessSet& component,
                                  const ProcessSet& side_a,
                                  const ProcessSet& side_b,
                                  DeliverFn deliver, CrossDeliveryFn crosses) {
  kept_scratch_.clear();
  for (Multicast& m : in_flight_) {
    if (!(m.scope == component)) {
      kept_scratch_.push_back(std::move(m));
      continue;
    }
    const bool sender_on_a = side_a.contains(m.sender);
    DV_ASSERT_MSG(sender_on_a || side_b.contains(m.sender),
                  "sender on neither side of split");
    const ProcessSet& near_side = sender_on_a ? side_a : side_b;
    const ProcessSet& far_side = sender_on_a ? side_b : side_a;
    deliver(m.message, m.sender, near_side);
    if (crosses(m.sender)) deliver(m.message, m.sender, far_side);
  }
  in_flight_.swap(kept_scratch_);
  kept_scratch_.clear();
}

void Network::encode(Encoder& enc) const {
  enc.put_varint(in_flight_.size());
  for (const Multicast& m : in_flight_) {
    enc.put_varint(m.sender);
    m.scope.encode(enc);
    enc.put_bytes(m.message.serialize());
  }
}

Network Network::decode(Decoder& dec, std::size_t universe) {
  const std::uint64_t count = dec.get_varint();
  if (count > 1'000'000 || count > dec.remaining()) {
    throw DecodeError("implausible in-flight count");
  }
  Network net;
  net.in_flight_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const ProcessId sender = static_cast<ProcessId>(dec.get_varint());
    ProcessSet scope = ProcessSet::decode(dec, universe);
    if (!scope.contains(sender)) {
      throw DecodeError("in-flight multicast sender outside its scope");
    }
    const std::vector<std::byte> bytes = dec.get_bytes();
    net.in_flight_.push_back(
        Multicast{sender, std::move(scope), Message::parse(bytes, universe)});
  }
  return net;
}

void Network::flush_for_merge(const ProcessSet& component, DeliverFn deliver) {
  kept_scratch_.clear();
  for (Multicast& m : in_flight_) {
    if (!(m.scope == component)) {
      kept_scratch_.push_back(std::move(m));
      continue;
    }
    deliver(m.message, m.sender, m.scope);
  }
  in_flight_.swap(kept_scratch_);
  kept_scratch_.clear();
}

}  // namespace dynvote
