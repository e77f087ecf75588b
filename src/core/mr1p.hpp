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
#pragma once

#include <optional>
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
  Message incoming_message(Message message, ProcessId sender) override;
  void incoming_messages(std::span<const Delivery> batch) override;
  std::optional<Message> outgoing_message_poll(const Message& app) override;
  bool in_primary() const override { return in_primary_; }
  std::string_view name() const override { return "mr1p"; }
  AlgorithmDebugInfo debug_info() const override;
  const Session& last_primary_session() const override { return cur_primary_; }

 private:
  /// The protocol's reaction to one received payload from `sender`; both
  /// entry points run it.
  void receive(const ProtocolPayload& payload, ProcessId sender);
  void try_new();
  void stage(PayloadRef<ProtocolPayload> payload);
  void handle_pending(const Mr1pPendingPayload& payload, ProcessId sender);
  void handle_reply(const Mr1pReplyPayload& payload, ProcessId sender);
  void handle_resolve(const Mr1pResolvePayload& payload, ProcessId sender);
  void handle_propose(const Mr1pProposePayload& payload, ProcessId sender);
  void handle_attempt(const Mr1pAttemptPayload& payload, ProcessId sender);
  void maybe_resolve();
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
  /// Members of pending_ whose status echo arrived (self included via
  /// self-delivery of our own reply batch).
  ProcessSet echo_senders_;
  std::uint64_t best_echo_num_ = 0;
  Mr1pStatus best_echo_status_ = Mr1pStatus::kNone;
  bool resolve_sent_ = false;
  /// Members of pending_ whose resolution call was try-fail.
  ProcessSet tryfail_callers_;
  /// Round 4's proposals, needed from all of the view.
  Tally proposals_;
  /// Round 5's attempts, needed from a majority of the view.
  Tally attempts_;
  bool attempt_sent_ = false;
  bool tried_new_ = false;
  /// Single-slot payload reuse, valid only while we hold the sole
  /// reference (single-threaded simulation).
  PayloadRef<Mr1pPendingPayload> pending_pool_;
  PayloadRef<Mr1pReplyPayload> reply_pool_;
};

}  // namespace dynvote
