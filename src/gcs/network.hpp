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
// delivered normally at the next round.  Every path hands the receiver
// batches (DeliverFn): all the multicasts that reach one recipient set, in
// send order, in one call -- never one call per multicast or per recipient.
#pragma once

#include <span>
#include <vector>

#include "core/message.hpp"
#include "core/types.hpp"
#include "util/function_ref.hpp"

namespace dynvote {

class Network {
 public:
  /// Called once per batch: every message in `batch`, in send order,
  /// reaches every process in `recipients`.  One call per recipient set,
  /// so the receiver does its bookkeeping (delivery count, due set) once
  /// per set and hands each recipient the whole batch.  The batch points
  /// into the network and is valid only for the call.  A non-owning
  /// reference (util/function_ref.hpp): callers keep the callable alive
  /// for the duration of the call, which every caller in the simulator
  /// does trivially -- the callbacks are locals or members of the Gcs that
  /// owns this network.
  using DeliverFn = FunctionRef<void(std::span<const Delivery> batch,
                                     const ProcessSet& recipients)>;

  /// Decides, per in-flight multicast, whether it crosses to the far side
  /// of a partition before connectivity is lost.
  using CrossDeliveryFn = FunctionRef<bool(ProcessId sender)>;

  /// Queue a multicast from `sender`, scoped to its component at send time.
  void send(ProcessId sender, ProcessSet scope, Message message);

  /// Deliver every queued multicast to its whole scope: one batch per
  /// scope, in send order, the batches in order of their first multicast.
  /// Returns the number of (message, recipient) deliveries made.  Throws
  /// PreconditionViolation, delivering nothing, when two queued scopes
  /// overlap without being equal, which the Gcs never queues: it scopes
  /// every send to the sender's component.  Not reentrant (a delivery must
  /// not call back into deliver_all; sends during delivery are fine and
  /// queue for the next round).
  std::size_t deliver_all(DeliverFn deliver);

  /// Flush messages scoped to `component` because it is about to partition
  /// into `side_a` and `side_b`: each message reaches its sender's side
  /// unconditionally and the opposite side iff `crosses(sender)`, asked
  /// once per flushed message in send order.  Each side gets one batch, in
  /// send order: side_a first, then side_b.  Other queued messages are
  /// untouched.
  void flush_for_partition(const ProcessSet& component,
                           const ProcessSet& side_a, const ProcessSet& side_b,
                           DeliverFn deliver, CrossDeliveryFn crosses);

  /// Flush messages scoped to `component` (about to merge) to their full
  /// scope, as one batch.  Other queued messages are untouched.
  void flush_for_merge(const ProcessSet& component, DeliverFn deliver);

  /// Drop every queued multicast undelivered, keeping the buffers.
  void clear() { in_flight_.clear(); }

  bool idle() const { return in_flight_.empty(); }
  std::size_t in_flight_count() const { return in_flight_.size(); }

 private:
  struct Multicast {
    ProcessId sender;
    ProcessSet scope;
    Message message;
  };

  /// The multicasts of one scope, and where deliver_all lays out their
  /// batch in batch_.
  struct Group {
    std::size_t first;  // index of its first multicast, whose scope it has
    std::size_t begin = 0;
    std::size_t size = 0;
  };

  /// Lists the distinct scopes of `multicasts` in groups_, in order of
  /// first appearance.  False when a scope overlaps a group's without
  /// being equal to it.  The check runs against the union of the groups'
  /// scopes so far: a sender it covers must have its group's scope, and a
  /// new scope must miss every group.  Once it passes, a multicast is in a
  /// group exactly when its sender is in the group's scope.
  bool group_by_scope(const std::vector<Multicast>& multicasts);

  std::vector<Multicast> in_flight_;
  /// Round-delivery staging: deliver_all swaps in_flight_ here so sends
  /// triggered by deliveries queue for the next round.  Keeping the buffer
  /// as a member preserves its capacity across rounds, making the steady
  /// state allocation-free.  Always empty between calls.
  std::vector<Multicast> batch_scratch_;
  /// Same idea for the flush paths' surviving-message rebuild.
  std::vector<Multicast> kept_scratch_;
  /// The batches handed out: deliver_all's groups back to back, a merge
  /// flush's one batch, or a partition flush's side_a batch (side_b's is
  /// side_b_batch_).  Capacity kept across calls, contents dead between
  /// them.
  std::vector<Delivery> batch_;
  std::vector<Delivery> side_b_batch_;
  /// group_by_scope's output, rebuilt by every call.
  std::vector<Group> groups_;
};

}  // namespace dynvote
