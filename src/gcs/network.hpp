// In-flight message store with view-synchronous flush semantics.
//
// A multicast sent in round t is "in flight" until the start of round t+1.
// If a connectivity change hits the sender's component first, the message
// is flushed with virtual-synchrony semantics:
//
//  * partition: the message always reaches the members on the *sender's*
//    side of the split; it reaches the far side -- as a whole, so processes
//    that move to the new view together have delivered the same set of
//    messages, as Transis guarantees -- only if the caller's cross-delivery
//    policy says the packet made it out before the link died.  This is the
//    asymmetry of thesis Figure 3-1: c's attempt crosses to a and b, who
//    complete the primary {a,b,c}, while a's and b's final messages never
//    reach the detached c, which must treat {a,b,c} as ambiguous;
//  * merge: the message is delivered to the full old component before the
//    merged view is installed (a merge does not destroy connectivity).
//
// Messages in components unaffected by a change stay queued and are
// delivered normally at the next round.  Every path hands a multicast to
// the receiver once per recipient set (DeliverFn), never per recipient.
#pragma once

#include <vector>

#include "core/message.hpp"
#include "core/types.hpp"
#include "util/function_ref.hpp"

namespace dynvote {

class Encoder;
class Decoder;

class Network {
 public:
  /// Called once per delivered multicast: `message` from `sender` reaches
  /// every process in `recipients`, in ascending id order.  One call per
  /// multicast, not per recipient, so the receiver does its bookkeeping
  /// (delivery count, due set) once per set.  A non-owning reference
  /// (util/function_ref.hpp): callers keep the callable alive for the
  /// duration of the call, which every caller in the simulator does
  /// trivially -- the callbacks are locals or members of the Gcs that owns
  /// this network.
  using DeliverFn =
      FunctionRef<void(const Message& message, ProcessId sender,
                       const ProcessSet& recipients)>;

  /// Decides, per in-flight multicast, whether it crosses to the far side
  /// of a partition before connectivity is lost.
  using CrossDeliveryFn = FunctionRef<bool(ProcessId sender)>;

  /// Queue a multicast from `sender`, scoped to its component at send time.
  void send(ProcessId sender, ProcessSet scope, Message message);

  /// Deliver every queued multicast to its whole scope, in send order.
  /// Returns the number of (message, recipient) deliveries made.  Not
  /// reentrant (a delivery must not call back into deliver_all; sends
  /// during delivery are fine and queue for the next round).
  std::size_t deliver_all(DeliverFn deliver);

  /// Flush messages scoped to `component` because it is about to partition
  /// into `side_a` and `side_b`: each message reaches its sender's side
  /// unconditionally and then, in a second call, the opposite side iff
  /// `crosses(sender)`.  Other queued messages are untouched.
  void flush_for_partition(const ProcessSet& component,
                           const ProcessSet& side_a, const ProcessSet& side_b,
                           DeliverFn deliver, CrossDeliveryFn crosses);

  /// Flush messages scoped to `component` (about to merge) to their full
  /// scope.  Other queued messages are untouched.
  void flush_for_merge(const ProcessSet& component, DeliverFn deliver);

  bool idle() const { return in_flight_.empty(); }
  std::size_t in_flight_count() const { return in_flight_.size(); }

  void encode(Encoder& enc) const;
  /// Throws DecodeError on a multicast whose scope is drawn over a universe
  /// other than `universe`, or whose sender is outside its scope.
  static Network decode(Decoder& dec, std::size_t universe);

 private:
  struct Multicast {
    ProcessId sender;
    ProcessSet scope;
    Message message;
  };

  std::vector<Multicast> in_flight_;
  /// Round-delivery staging: deliver_all swaps in_flight_ here so sends
  /// triggered by deliveries queue for the next round.  Keeping the buffer
  /// as a member preserves its capacity across rounds, making the steady
  /// state allocation-free.  Always empty between calls.
  std::vector<Multicast> batch_scratch_;  // dvlint: transient(empty between rounds)
  /// Same idea for the flush paths' surviving-message rebuild.
  std::vector<Multicast> kept_scratch_;  // dvlint: transient(empty between flushes)
};

}  // namespace dynvote
