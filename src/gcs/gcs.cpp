#include "gcs/gcs.hpp"

#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {

void WireStats::encode_body(Encoder& enc) const {
  enc.put_varint(messages_sent);
  enc.put_varint(protocol_messages_sent);
  enc.put_varint(max_message_bytes);
  enc.put_varint(total_message_bytes);
}

void WireStats::decode_body(Decoder& dec) {
  messages_sent = dec.get_varint();
  protocol_messages_sent = dec.get_varint();
  max_message_bytes = static_cast<std::size_t>(dec.get_varint());
  total_message_bytes = dec.get_varint();
}

Gcs::Gcs(AlgorithmKind kind, std::size_t processes, GcsOptions options)
    : Gcs(
          [kind](ProcessId self, const View& initial_view) {
            return make_algorithm(kind, self, initial_view);
          },
          processes, options) {}

Gcs::Gcs(const AlgorithmFactory& factory, std::size_t processes,
         GcsOptions options)
    : options_(options), topology_(processes),
      delivery_rng_(Rng::from_raw_seed(options.delivery_seed)),
      crashed_(processes),
      due_(ProcessSet::full(processes)) {
  DV_REQUIRE(processes >= 1, "need at least one process");
  const View initial{1, ProcessSet::full(processes)};
  algorithms_.reserve(processes);
  installed_views_.assign(processes, initial);
  for (ProcessId p = 0; p < processes; ++p) {
    algorithms_.push_back(factory(p, initial));
    DV_REQUIRE(algorithms_.back() != nullptr, "factory returned null");
  }
}

PrimaryComponentAlgorithm& Gcs::algorithm(ProcessId id) {
  DV_REQUIRE(id < algorithms_.size(), "process id out of range");
  due_.insert(id);
  ++revision_;
  return *algorithms_[id];
}

const PrimaryComponentAlgorithm& Gcs::algorithm(ProcessId id) const {
  DV_REQUIRE(id < algorithms_.size(), "process id out of range");
  return *algorithms_[id];
}

const View& Gcs::view_of(ProcessId id) const {
  DV_REQUIRE(id < installed_views_.size(), "process id out of range");
  return installed_views_[id];
}

void Gcs::deliver(std::span<const Delivery> batch,
                  const ProcessSet& recipients) {
  deliveries_ += batch.size() * recipients.count();
  due_.insert_all(recipients);
  // The batch form drops the application parts: the simulated application
  // has no payload traffic of its own.
  recipients.for_each(
      [&](ProcessId r) { algorithms_[r]->incoming_messages(batch); });
}

void Gcs::record_send(const Message& message) {
  ++wire_stats_.messages_sent;
  if (message.has_protocol()) ++wire_stats_.protocol_messages_sent;
  if (!options_.measure_wire_sizes) return;
  measure_wire(message);
}

// Out of line so the per-send fast path in record_send stays tiny; only
// the message-size bench pays for the encode below.
void Gcs::measure_wire(const Message& message) {
  const std::size_t bytes = message.wire_size();
  wire_stats_.total_message_bytes += bytes;
  if (bytes > wire_stats_.max_message_bytes) {
    wire_stats_.max_message_bytes = bytes;
  }
}

bool Gcs::step_round() {
  const DeliverCallback deliver_cb{this};
  const std::size_t deliveries = network_.deliver_all(deliver_cb);

  // One empty application message serves every poll of the round (the
  // contract passes it by const reference).
  static const Message kEmptyApp = Message::empty();
  std::size_t polls = 0;
  std::size_t sends = 0;
  // Only processes with input since their last empty poll can have
  // anything to say, in ascending id order as if everyone were polled.
  due_.for_each([&](ProcessId p) {
    if (crashed_.contains(p)) return;
    ++polls;
    auto out = algorithms_[p]->outgoing_message_poll(kEmptyApp);
    if (!out.has_value()) {
      due_.erase(p);
      return;
    }
    record_send(*out);
    const std::size_t comp = topology_.component_of(p);
    network_.send(p, topology_.component(comp), std::move(*out));
    ++sends;
  });
  if (deliveries + polls > 0) ++revision_;
  return deliveries + sends > 0;
}

void Gcs::install_view(const ProcessSet& members) {
  const View view{next_view_id_++, members};
  DV_TRACE_INSTANT("view_installed", view.id, members.count());
  members.for_each([&](ProcessId p) {
    installed_views_[p] = view;
    due_.insert(p);
    algorithms_[p]->view_changed(view);
  });
}

void Gcs::apply_partition(std::size_t component_index, const ProcessSet& moved,
                          Network::CrossDeliveryFn crosses) {
  ++revision_;
  const ProcessSet component = topology_.component(component_index);
  const ProcessSet remainder = component.minus(moved);
  DV_REQUIRE(!moved.empty() && !remainder.empty(),
             "partition must produce two non-empty sides");

  const DeliverCallback deliver_cb{this};
  const CoinCallback coin_cb{this};
  network_.flush_for_partition(
      component, remainder, moved, deliver_cb,
      crosses ? crosses : Network::CrossDeliveryFn(coin_cb));
  topology_.split(component_index, moved);
  install_view(remainder);
  install_view(moved);
}

void Gcs::apply_merge(std::size_t a, std::size_t b) {
  ++revision_;
  const ProcessSet comp_a = topology_.component(a);
  const ProcessSet comp_b = topology_.component(b);
  // A crashed process sits alone and comes back only through
  // apply_recovery or apply_wake, never through a merge.
  DV_REQUIRE(!comp_a.is_subset_of(crashed_) && !comp_b.is_subset_of(crashed_),
             "merge needs a live process on each side");

  const DeliverCallback deliver_cb{this};
  network_.flush_for_merge(comp_a, deliver_cb);
  network_.flush_for_merge(comp_b, deliver_cb);
  topology_.merge(a, b);
  install_view(comp_a.united_with(comp_b));
}

void Gcs::apply_crash(ProcessId p, Network::CrossDeliveryFn crosses) {
  // Even a crash that installs no view (the process was already alone)
  // changes the world: the crash set.
  ++revision_;
  DV_REQUIRE(p < algorithms_.size(), "process id out of range");
  DV_REQUIRE(!crashed_.contains(p), "process is already crashed");

  const std::size_t index = topology_.component_of(p);
  const ProcessSet component = topology_.component(index);
  ProcessSet lone(topology_.universe_size());
  lone.insert(p);
  const ProcessSet survivors = component.minus(lone);

  // A dead process receives nothing; its own in-flight multicasts may
  // still escape to the survivors.  The lambda is a named local, so the
  // non-owning callback references stay valid for both flush calls.
  const auto deliver_fn = [this, &lone](std::span<const Delivery> batch,
                                        const ProcessSet& recipients) {
    deliver(batch, recipients.minus(lone));
  };

  const CoinCallback coin_cb{this};
  if (!survivors.empty()) {
    network_.flush_for_partition(
        component, survivors, lone, deliver_fn,
        crosses ? crosses : Network::CrossDeliveryFn(coin_cb));
    topology_.split(index, lone);
    install_view(survivors);
  } else {
    // Already isolated: just drop whatever it had in flight to itself.
    network_.flush_for_merge(component, deliver_fn);
  }
  crashed_.insert(p);
}

void Gcs::apply_sleep(ProcessId p) {
  // A graceful leave: the sleeper's in-flight multicasts all escape to the
  // survivors before it goes (no delivery coin).  Everything else --
  // isolation into a singleton component, the survivors' new view, joining
  // the inactive set -- is exactly the crash path.
  const auto always_crosses = [](ProcessId) { return true; };
  apply_crash(p, Network::CrossDeliveryFn(always_crosses));
}

void Gcs::apply_wake(ProcessId p, ProcessId into) {
  DV_REQUIRE(p < algorithms_.size(), "process id out of range");
  DV_REQUIRE(crashed_.contains(p), "process is not asleep");
  DV_REQUIRE(into < algorithms_.size() && !crashed_.contains(into) &&
                 into != p,
             "wake target must be a distinct active process");
  crashed_.erase(p);
  // The sleeper kept its state; it rejoins the target's component in one
  // merge, so everyone -- waker included -- sees a single join view.
  apply_merge(topology_.component_of(into), topology_.component_of(p));
}

void Gcs::apply_recovery(ProcessId p) {
  ++revision_;
  DV_REQUIRE(p < algorithms_.size(), "process id out of range");
  DV_REQUIRE(crashed_.contains(p), "process is not crashed");
  crashed_.erase(p);
  // Reconnect as a singleton: the process discovers it is alone (its state
  // survived on stable storage) and resynchronizes through later merges.
  ProcessSet lone(topology_.universe_size());
  lone.insert(p);
  install_view(lone);
}

bool Gcs::has_primary() const {
  for (ProcessId p = 0; p < algorithms_.size(); ++p) {
    if (!crashed_.contains(p) && algorithms_[p]->in_primary()) return true;
  }
  return false;
}

}  // namespace dynvote
