// The algorithm-to-application interface (thesis §2.1, Figure 2-1).
//
// A primary-component algorithm is an event-driven object with no inherent
// communication ability: it reacts to views and messages, piggybacks its own
// state onto application traffic, and exposes a single question -- "am I in
// a primary component?".  Any transport with reliable multicast and view
// notification can host it; `dynvote::Gcs` is the simulated one.
//
// Contract (mirrors the thesis):
//  * `view_changed` is called whenever the GCS installs a new view that
//    includes this process.  Views only ever contain processes from the
//    initial view.
//  * Every received message is passed through `incoming_message`, which
//    strips and consumes any piggybacked protocol payload and returns the
//    application part.  A host whose application has no use for those
//    parts may pass several received messages through `incoming_messages`
//    in one call instead: same messages, same order, application parts
//    dropped.  Its default calls `incoming_message` on each message, so an
//    algorithm (or a decorator) that implements only `incoming_message`
//    sees every receipt.  Either way a process receives messages in the
//    order they were sent; how receipts at different processes interleave
//    is unspecified, since no process reads another's state.
//  * A host may also hand one batch to all the processes that receive it
//    together, through `incoming_messages_to_group` on the lowest of them.
//    They share a view.  Each member must end as if it had received the
//    batch itself through `incoming_messages`; the default does exactly
//    that, member by member in id order.  An algorithm whose round is the
//    same at every member of a view may receive it once for all of them:
//    the YKD family does for its rounds (DFLS's GC round included), and
//    MR1p for the tallies of its rounds 4 and 5.
//  * Every outgoing message -- and, after each receipt or view change, an
//    empty poll -- is passed through `outgoing_message_poll`.  A non-null
//    result must be multicast to the current view in place of the original.
//    The algorithm never needs to be polled spontaneously: its state only
//    changes when new information (a message or a view) arrives.
//  * `in_primary` may be read at leisure; it can only change on new
//    information.
//  * A host that returns its whole world to the all-connected start (a
//    fresh-start sweep does before each run) calls `restart`, after
//    dropping every message it holds.  The process must then read and act
//    exactly as a newly built one would, keeping its buffers.  The default
//    returns false, and the host builds a new instance instead.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/message.hpp"
#include "core/session.hpp"
#include "core/types.hpp"
#include "core/view.hpp"

namespace dynvote {

/// The algorithms studied by the paper.
enum class AlgorithmKind {
  /// Stateless control: primary iff the view is a quorum of the initial one.
  kSimpleMajority,
  /// Yeger Lotem / Keidar / Dolev dynamic voting, with the session-pruning
  /// optimization (2 rounds, pipelined ambiguous sessions).
  kYkd,
  /// YKD without the storage optimization; identical availability,
  /// strictly more retained state.
  kYkdUnoptimized,
  /// De Prisco / Fekete / Lynch / Shvartsman variant: unoptimized YKD plus
  /// one extra round before ambiguous sessions may be deleted (3 rounds).
  kDfls,
  /// Blocks while one ambiguous session is pending; resolving it may require
  /// hearing from all of its members (2 rounds).
  kOnePending,
  /// Majority-resilient 1-pending: resolves its single pending session with
  /// only a majority of its members, at the cost of 5 message rounds.
  kMr1p,
};

/// All kinds, in the paper's presentation order.
std::vector<AlgorithmKind> all_algorithm_kinds();

/// Short stable name ("ykd", "dfls", ...), used in tables and CLIs.
std::string_view to_string(AlgorithmKind kind);

/// Inverse of to_string; nullopt for unknown names.
std::optional<AlgorithmKind> algorithm_kind_from_string(std::string_view name);

/// Introspection snapshot used by the invariant checker, statistics
/// collection (Figures 4-7/4-8), and tests.  Not part of the application
/// contract.
struct AlgorithmDebugInfo {
  /// The last primary component this process formed or adopted.
  Session last_primary;
  /// Number of ambiguous (pending, unresolved) sessions currently retained.
  std::size_t ambiguous_count = 0;
  /// True when the algorithm wants to act but cannot until it hears from
  /// processes outside the current view (1-pending/MR1p blocking).
  bool blocked = false;
  /// Current value of the session counter, where the algorithm has one.
  SessionNumber session_number = 0;

  bool operator==(const AlgorithmDebugInfo&) const = default;
};

class PrimaryComponentAlgorithm {
 public:
  virtual ~PrimaryComponentAlgorithm() = default;

  PrimaryComponentAlgorithm(const PrimaryComponentAlgorithm&) = delete;
  PrimaryComponentAlgorithm& operator=(const PrimaryComponentAlgorithm&) = delete;

  /// The GCS installed a new view containing this process.
  virtual void view_changed(const View& view) = 0;

  /// Pass a received message through the algorithm.  Returns the message
  /// with the protocol payload stripped; the application must not look at
  /// the original.
  virtual Message incoming_message(Message message, ProcessId sender) = 0;

  /// Pass received messages through the algorithm in `batch` order,
  /// dropping their application parts.  The simulated GCS hands each
  /// recipient a round's messages, or a flush's, in one such call.  The
  /// default calls incoming_message on each message in turn.
  virtual void incoming_messages(std::span<const Delivery> batch);

  /// Pass `batch` to every member of `group`: processes in ascending id
  /// order that share a view and all receive the batch, `this` being the
  /// first.  The simulated GCS makes one such call per batch.  Each member
  /// must end as if its own incoming_messages had received the batch; the
  /// default calls exactly that on each member in turn.
  virtual void incoming_messages_to_group(
      std::span<PrimaryComponentAlgorithm* const> group,
      std::span<const Delivery> batch);

  /// Offer an outgoing application message (possibly empty).  Returns the
  /// message to multicast instead -- with protocol state piggybacked -- or
  /// nullopt when the algorithm has nothing to add.
  virtual std::optional<Message> outgoing_message_poll(const Message& app) = 0;

  /// Is this process currently in a primary component?
  virtual bool in_primary() const = 0;

  /// This process's id.
  ProcessId self() const { return self_; }

  /// The initial view the system started from.
  const View& initial_view() const { return initial_view_; }

  virtual std::string_view name() const = 0;

  virtual AlgorithmDebugInfo debug_info() const = 0;

  /// Retired: no algorithm writes or reads its state as bytes any more,
  /// because a snapshot names a point on its world's trajectory and
  /// restores by replay (sim/snapshot.hpp).  Both still throw
  /// std::logic_error and are declared only because perfbench's
  /// TracedAlgorithm overrides them; they go with that benchmark's next
  /// change.
  virtual void save(Encoder& enc) const;
  virtual void load(Decoder& dec);

  /// The last primary this process formed or adopted, by reference -- the
  /// invariant checker reads this once per process per round, so it must
  /// not copy.
  virtual const Session& last_primary_session() const = 0;

  /// Return to the state the constructor builds, in the same initial view,
  /// keeping every buffer and payload pool.  True when done; the default
  /// returns false, and the host then builds a new instance.  An override
  /// is called by its own class's constructor, so the genesis state is
  /// written in one place.
  virtual bool restart();

 protected:
  PrimaryComponentAlgorithm(ProcessId self, View initial_view);

  ProcessId self_;
  View initial_view_;
};

/// Factory: construct an algorithm instance for process `self`, started in
/// `initial_view` (which must contain `self`).
std::unique_ptr<PrimaryComponentAlgorithm> make_algorithm(
    AlgorithmKind kind, ProcessId self, const View& initial_view);

}  // namespace dynvote
