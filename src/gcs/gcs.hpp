// The simulated group communication service.
//
// Plays the role Transis played for the thesis's implementation: it owns one
// algorithm instance per process, reports connectivity changes as views,
// and provides reliable multicast scoped to the sender's component.  The
// thesis's own measurements ran exactly this way -- multiple algorithm
// instances in one address space with a driver loop shuttling messages --
// because the algorithms have no inherent communication ability.
//
// A *message round* is: deliver every in-flight multicast, then poll once
// (offering an empty application message) every live process that has had
// input -- a delivery or a view -- since its last empty poll.  That is the
// interface contract of thesis Fig. 2-2 (core/algorithm.hpp): polls follow
// a receipt or a view change, and an algorithm's state only changes on new
// information, so a process whose last poll said nothing has nothing to
// say until its next input.  Multi-round protocols therefore take several
// rounds, and a connectivity change injected between rounds interrupts
// them, which is the phenomenon under study.
//
// Delivery is batched, in the round and in the flushes alike: the network
// hands the Gcs every multicast that reaches one recipient set as one
// batch, in send order.  The set is counted and made due once, then the
// recipients get the whole batch together, in one incoming_messages_to_group
// call on the lowest of them -- one call per recipient set, not one per
// member or per message.  An algorithm whose members run the same round
// receives the batch once for all of them; the default hands it to each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/algorithm.hpp"
#include "gcs/network.hpp"
#include "gcs/topology.hpp"
#include "util/rng.hpp"

namespace dynvote {

class Encoder;
class Decoder;

struct GcsOptions {
  /// Encode each sent payload to record wire sizes (costs CPU; the
  /// availability benches leave it off, the message-size bench turns it on).
  bool measure_wire_sizes = false;
  /// Seed for the cross-side delivery coin flips made when a partition
  /// catches messages in flight.  A separate stream from the fault
  /// schedule, so the topology trajectory never depends on these draws.
  std::uint64_t delivery_seed = 0xDE11u;
};

struct WireStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t protocol_messages_sent = 0;
  std::size_t max_message_bytes = 0;
  std::uint64_t total_message_bytes = 0;

  /// Fold another measurement in (counters add, the maximum maxes); used
  /// when aggregating per-run or per-shard measurements into a case.
  void merge(const WireStats& other) {
    messages_sent += other.messages_sent;
    protocol_messages_sent += other.protocol_messages_sent;
    max_message_bytes = std::max(max_message_bytes, other.max_message_bytes);
    total_message_bytes += other.total_message_bytes;
  }

  /// Lossless wire form (util/codec.hpp), used by fabric result frames
  /// when shard results travel back from remote workers.
  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

class Gcs {
 public:
  /// Builds one algorithm instance per process for a well-known kind.
  Gcs(AlgorithmKind kind, std::size_t processes, GcsOptions options = {});

  /// Builds instances via a caller-supplied factory -- the hook for hosting
  /// additional algorithms (the thesis explicitly invites researchers to
  /// plug their own into the framework) and for testing the harness itself.
  using AlgorithmFactory = std::function<std::unique_ptr<PrimaryComponentAlgorithm>(
      ProcessId self, const View& initial_view)>;
  Gcs(const AlgorithmFactory& factory, std::size_t processes,
      GcsOptions options = {});

  /// Return the world to the state the constructor builds, with
  /// `delivery_seed` for GcsOptions::delivery_seed, keeping every buffer:
  /// all processes connected in view 1, nothing in flight, nobody crashed,
  /// the counters and revision() back at their start.  Each process
  /// restarts in place, or is built anew by the factory when it cannot
  /// (PrimaryComponentAlgorithm::restart).
  void restart(std::uint64_t delivery_seed);

  std::size_t process_count() const { return algorithms_.size(); }
  const Topology& topology() const { return topology_; }
  const WireStats& wire_stats() const { return wire_stats_; }

  /// Total (message, recipient) deliveries made so far -- round deliveries
  /// and flush deliveries alike.  Cumulative like the wire counters; the
  /// experiment layer folds per-run deltas into
  /// CaseResult::total_deliveries.
  std::uint64_t deliveries() const { return deliveries_; }

  /// Names the world's current state: it moves whenever anything may have
  /// changed an algorithm, a view or the crash set -- a round that
  /// delivered or polled, every apply_*, and the non-const algorithm()
  /// accessor -- and stays put across rounds that call no algorithm.
  /// Answers computed from the world (the invariant checker's verdict,
  /// has_primary) hold while it does.  It starts at 1 so that 0 names no
  /// state.
  std::uint64_t revision() const { return revision_; }

  /// Hands out process `id` for the caller to feed input (an application
  /// message, say), so it counts as input: the process is due a poll at
  /// the next round and the revision moves.  Reads go through the const
  /// overload, which counts as nothing.
  PrimaryComponentAlgorithm& algorithm(ProcessId id);
  const PrimaryComponentAlgorithm& algorithm(ProcessId id) const;

  /// The view currently installed at `id`.
  const View& view_of(ProcessId id) const;

  /// Execute one message round.  Returns true if any delivery or send
  /// happened (false = the system is quiescent).  A round with nothing in
  /// flight and nobody due a poll calls no algorithm and leaves the
  /// revision alone.
  bool step_round();

  /// Partition: `moved` splits away from component `component_index`.
  /// In-flight messages of that component flush to the sender's side
  /// unconditionally and to the far side per `crosses` (default: a fair
  /// coin from the delivery stream -- the packet either escaped before the
  /// link died or it did not).  Then both sides receive new views.
  /// Directed tests pass an explicit `crosses` to script Figure 3-1-style
  /// asymmetries.
  void apply_partition(std::size_t component_index, const ProcessSet& moved,
                       Network::CrossDeliveryFn crosses = nullptr);

  /// Merge components `a` and `b`, each holding a live process.  In-flight
  /// messages of both flush to their full old scopes, then the union
  /// receives a new view.
  void apply_merge(std::size_t a, std::size_t b);

  /// Crash a process (thesis §5.1 future work).  The process is isolated
  /// into a singleton component and stops participating: it is not polled,
  /// receives nothing, and claims nothing.  Messages it multicast before
  /// crashing may still reach the survivors (per `crosses`, defaulting to
  /// the delivery coin); messages addressed to it are lost.  The survivors
  /// receive a new view.
  void apply_crash(ProcessId p, Network::CrossDeliveryFn crosses = nullptr);

  /// Recover a crashed process with its state intact (crash-recovery with
  /// stable storage).  It rejoins as a singleton component -- receiving a
  /// singleton view -- and reconnects through ordinary merges.
  void apply_recovery(ProcessId p);

  /// Sleepy participation (TOB-SVD-style): the process leaves gracefully.
  /// Identical to a crash except that every message it had in flight
  /// escapes to the survivors (a sleeper drains its buffers; a crash loses
  /// them to the coin).  The sleeper joins the crash set -- which is
  /// therefore really the "inactive" set -- until apply_wake.
  void apply_sleep(ProcessId p);

  /// Wake a sleeping (or repaired) process: it leaves the inactive set and
  /// its singleton component merges with the component of `into`, so the
  /// whole group receives ONE join view.  Contrast apply_recovery, where
  /// the process first observes a singleton view and must be merged back
  /// explicitly.
  void apply_wake(ProcessId p, ProcessId into);

  /// Currently crashed (or sleeping -- see apply_sleep) processes.
  const ProcessSet& crashed() const { return crashed_; }
  bool is_crashed(ProcessId p) const { return crashed_.contains(p); }

  /// True when no multicast is in flight.
  bool network_idle() const { return network_.idle(); }

  /// Does any process currently consider itself in a primary component?
  /// (The invariant checker guarantees per-component agreement.)
  bool has_primary() const;

 private:
  void install_view(const ProcessSet& members);
  /// A batch reaching `recipients`: counted and made due once for the set,
  /// then handed whole to the recipients as one group, in ascending id
  /// order.  An empty set makes no call.
  void deliver(std::span<const Delivery> batch, const ProcessSet& recipients);
  void record_send(const Message& message);
  void measure_wire(const Message& message);

  /// Callable targets for the network's non-owning callbacks
  /// (util/function_ref.hpp).  One-word structs built as locals at each
  /// call site (so Gcs stays movable) -- constructing one is free, unlike
  /// the std::function each round used to allocate for.
  struct DeliverCallback {
    Gcs* gcs;
    void operator()(std::span<const Delivery> batch,
                    const ProcessSet& recipients) const {
      gcs->deliver(batch, recipients);
    }
  };
  struct CoinCallback {
    Gcs* gcs;
    bool operator()(ProcessId /*sender*/) const {
      return gcs->delivery_rng_.chance(0.5);
    }
  };

  GcsOptions options_;
  Topology topology_;
  Network network_;
  Rng delivery_rng_;
  std::vector<std::unique_ptr<PrimaryComponentAlgorithm>> algorithms_;
  /// deliver()'s recipients, rebuilt per batch; reserved for every
  /// process at construction so delivery never grows it.
  std::vector<PrimaryComponentAlgorithm*> group_;
  std::vector<View> installed_views_;
  ViewId next_view_id_ = 2;  // the initial view is id 1
  WireStats wire_stats_;
  std::uint64_t deliveries_ = 0;
  ProcessSet crashed_;
  /// Processes with input since their last empty poll: the ones step_round
  /// polls.  A process leaves when its poll returns nothing; one that sent
  /// stays, since its outbox may hold more.
  ProcessSet due_;
  std::uint64_t revision_ = 1;
  /// Builds each process, and rebuilds one that cannot restart.
  AlgorithmFactory factory_;
};

}  // namespace dynvote
