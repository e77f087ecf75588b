// MR1p: Majority-Resilient 1-pending (thesis §3.2.4; based on ideas from
// Lamport's Paxos and Malloth-Schiper's Phoenix).
//
// Like 1-pending it retains at most one ambiguous session, but it can
// resolve that session after hearing from only a *majority* of its members,
// at the cost of five message rounds when a pending session exists:
//
//   R1  holders multicast their pending session (<A, num, status>);
//   R2  everyone replies with what it knows about each queried session
//       (formed / aborted / its own status echo), batched per sender;
//   R3  holders that gathered echoes from a majority multicast their call
//       on the outcome; a majority of try-fail calls abandons the session;
//   R4  <V,1>: request to declare the current view a primary -- sent by a
//       process as soon as it has no pending session and the view is a
//       subquorum of its current primary;
//   R5  once <V,1> has arrived from ALL members, <attempt,V>; the primary
//       is formed once attempts arrive from a MAJORITY of the view.
//
// With no pending session only R4+R5 run: two rounds, as the thesis states.
//
// Interpretations of the thesis pseudocode (documented deviations):
//  * "Upon receipt of <V, formed>: ... is_primary = true": we update
//    cur_primary and formedViews but do NOT set is_primary -- the queried
//    session belongs to an earlier view, and declaring a primary for a view
//    other than the current one would break the one-live-primary invariant
//    the simulator checks.  try-new follows, as written.
//  * The thesis pseudocode does not say what resolves a session whose most
//    advanced echo is "attempt" (only <tryfail,V> has a consumption rule).
//    Mr1pResolutionPolicy picks the interpretation; see below.  A call of
//    "sent" becomes try-fail, exactly as in the pseudocode.
//  * Replies are batched: all round-1 queries delivered in a round are
//    answered in one multicast at the next poll.
//
// formedViews grows as primaries form; per the thesis's optimization it is
// reset whenever a primary equal to the full initial view forms (everyone
// is present in that formation, so no older session can ever be queried
// again).
//
// Rounds 4 and 5 are tallied once per view.  Their tallies count senders
// of the view's own session, which every member of the view counts alike,
// and each member acts only at the message that reaches a tally: it stages
// its attempt if it is pending on the view's session (round 4), or it
// forms the primary (round 5).  A member proposes at most once per view,
// so round 4 completes at its last distinct sender, and once round 5
// completes every member stays in primary until its next view change; so
// acting only there is what acting at every later message would do.
// Rounds 1-3 read each member's own pending session, its echo state and
// its resolution policy, never the tallies, and members sharing those
// three react to a reply or a resolve alike.  So when the GCS hands a
// batch to a view's members together (incoming_messages_to_group) and they
// all hold equal tallies, the lowest member counts rounds 4 and 5 for all
// of them, and the members are split into pending classes: each class's
// lowest member walks rounds 2 and 3 once for the class, in batch order,
// and every member runs its own step where the class's state machine
// fires (adopt, abandon, or stage its resolve call).  A class whose
// pending session moved ends there, and its members receive the rest of
// the batch on their own; members with nothing pending skip rounds 2 and
// 3, which cannot touch them.  Round 1's query list is built once when
// every member starts the batch with an equal one.  When the batch ends,
// the others take the lowest member's tallies and query list and each
// live class's echo state.  DESIGN.md §4d has the argument.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/algorithm.hpp"
#include "core/payload.hpp"
#include "core/quorum.hpp"

namespace dynvote {

/// What to do when a majority of a pending session's members echoed their
/// status and the most advanced of them had already sent its attempt
/// message (so the session may have formed somewhere out of sight).
enum class Mr1pResolutionPolicy {
  /// Keep the session pending until formed/aborted evidence arrives, or
  /// every member is present and still pending (which proves the attempt
  /// never completed and aborts it).  Blocks more -- this matches the
  /// thesis's finding that MR1p degrades drastically as changes accumulate,
  /// and is the default.
  kConservative,
  /// Paxos-style completion: treat the possibly-formed session as formed
  /// and adopt it as the current primary.  Never blocks on this case; an
  /// ablation bench measures how much availability the choice is worth.
  kAdoptOnAttempt,
};

struct Mr1pOptions {
  Mr1pResolutionPolicy policy = Mr1pResolutionPolicy::kConservative;
};

class Mr1p final : public PrimaryComponentAlgorithm {
 public:
  Mr1p(ProcessId self, const View& initial_view, Mr1pOptions options = {});

  void view_changed(const View& view) override;
  /// Both per-member entry points are a group of one.
  Message incoming_message(Message message, ProcessId sender) override;
  void incoming_messages(std::span<const Delivery> batch) override;
  /// When every member of `group` is an Mr1p in this process's view with
  /// this process's round-4 and round-5 tallies, this process counts those
  /// rounds for the group, each pending class's lowest member walks rounds
  /// 2 and 3 for its class, and every member runs its own step where a
  /// tally is reached or its class's state machine fires.  Any other group
  /// falls back to each member receiving the batch itself.
  void incoming_messages_to_group(
      std::span<PrimaryComponentAlgorithm* const> group,
      std::span<const Delivery> batch) override;
  std::optional<Message> outgoing_message_poll(const Message& app) override;
  bool in_primary() const override { return in_primary_; }
  /// Primary in the initial view, nothing pending, and formedViews holding
  /// only the initial view's session.
  bool restart() override;
  std::string_view name() const override { return "mr1p"; }
  AlgorithmDebugInfo debug_info() const override;
  const Session& last_primary_session() const override { return cur_primary_; }

 private:
  /// What rounds 2 and 3 have gathered about pending_ in this view.
  struct EchoState {
    /// Members of pending_ whose status echo arrived (self included via
    /// self-delivery of our own reply batch).
    ProcessSet senders;
    std::uint64_t best_num = 0;
    Mr1pStatus best_status = Mr1pStatus::kNone;
    bool resolve_sent = false;
    /// Members of pending_ whose resolution call was try-fail.
    ProcessSet tryfail_callers;

    bool operator==(const EchoState&) const = default;
  };
  /// A pending class: members of one group that share pending_, echo_ and
  /// the resolution policy, ascending.  The first leads: its echo_ is the
  /// class's until the class ends, and the others' are stale until then.
  using PendingClass = std::span<Mr1p* const>;
  /// One batch's view of its group: the pending classes and the shared
  /// query list (defined in mr1p.cpp; it lives on the leader's stack).
  class GroupBatch;

  /// The protocol's reaction to one received payload from `sender` at
  /// every member of `batch`'s group (this process first, all of them Mr1p
  /// with this process's tallies): round 1 into the shared query list or
  /// each member's own, rounds 2 and 3 once per pending class, rounds 4
  /// and 5 counted in this process's tallies and stepped at each member.
  /// Every entry point runs it.
  void receive(const ProtocolPayload& payload, ProcessId sender,
               GroupBatch& batch);
  /// Is every one of `others` an Mr1p in this view with equal tallies?
  bool shares_tallies(std::span<PrimaryComponentAlgorithm* const> others) const;
  /// Do this pending member and pending `other` form one pending class?
  bool shares_pending_class(const Mr1p& other) const;
  /// Counts `sender` in `tally` if `proposal` is this view's session; true
  /// when that sender is the one that reaches the tally.
  bool reaches(Tally& tally, const Session& proposal, ProcessId sender);
  void try_new();
  void stage(PayloadRef<ProtocolPayload> payload);
  void handle_pending(const Mr1pPendingPayload& payload);
  /// Round 2's class step: this process leads `cls` and reads a reply's
  /// `items` for it.  False when the class's pending session moved; its
  /// members have then read the remaining items each on its own.
  bool handle_reply(std::span<const Mr1pReplyItem> items, ProcessId sender,
                    PendingClass cls);
  /// Round 3's class step; false when the class's pending session moved.
  bool handle_resolve(const Mr1pResolvePayload& payload, ProcessId sender,
                      PendingClass cls);
  /// Round 4's step, once every member proposed `proposal`: stage this
  /// process's attempt if it is pending on it.
  void stage_attempt(const Session& proposal);
  /// Round 5's step, once a majority attempted `proposal`: form it.
  void form(const Session& proposal);
  /// Round 3's call, once echoes from a majority of pending_ arrived: each
  /// member of `cls` stages it, and under kAdoptOnAttempt may adopt.  False
  /// when the class's pending session moved.
  bool maybe_resolve(PendingClass cls);
  /// The class's pending session moves: every member takes this leader's
  /// echo state and runs `step` on itself.
  template <typename Step>
  void end_class(PendingClass cls, const Step& step);
  /// Stage round 3's call on pending_.
  void stage_resolve(Mr1pVerdict call);
  void adopt_formed(const Session& session);
  void abandon_pending();
  void record_formed(const Session& session);
  bool knows_formed(const Session& session) const;
  /// The session this view would become if declared primary.
  Session view_session() const;
  /// Is `s` view_session()?  Compared in place, without building one.
  bool is_view_session(const Session& s) const {
    return s.number == current_view_.id && s.members == current_view_.members;
  }

  // --- persistent state (thesis §3.2.4) ---
  Mr1pOptions options_;
  Session cur_primary_;
  std::optional<Session> pending_;
  std::uint64_t num_ = 0;
  Mr1pStatus status_ = Mr1pStatus::kNone;
  std::vector<Session> formed_views_;
  bool in_primary_ = true;

  // --- per-view protocol state ---
  View current_view_;
  /// Staged payloads, appended and consumed front-to-back via outbox_head_
  /// (vector + cursor instead of a deque so capacity survives view changes
  /// and steady-state staging never allocates).  The consumed prefix is
  /// dead.
  std::vector<PayloadPtr> outbox_;
  std::size_t outbox_head_ = 0;
  /// Distinct sessions queried via R1 since the last poll, awaiting replies.
  std::vector<Session> unanswered_queries_;
  EchoState echo_;
  /// Round 4's proposals, needed from all of the view.  When this process
  /// leads a group, its tallies are the group's until the batch ends.
  Tally proposals_;
  /// Round 5's attempts, needed from a majority of the view.
  Tally attempts_;
  bool tried_new_ = false;
  /// Single-slot reuse of each round's payload (reuse_payload).
  PayloadRef<Mr1pPendingPayload> pending_pool_;
  PayloadRef<Mr1pReplyPayload> reply_pool_;
  PayloadRef<Mr1pResolvePayload> resolve_pool_;
  PayloadRef<Mr1pProposePayload> propose_pool_;
  PayloadRef<Mr1pAttemptPayload> attempt_pool_;
};

}  // namespace dynvote
