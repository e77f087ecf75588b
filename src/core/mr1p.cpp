#include "core/mr1p.hpp"

#include <algorithm>

#include "core/quorum.hpp"
#include "util/assert.hpp"

namespace dynvote {

namespace {

Mr1pVerdict echo_verdict(Mr1pStatus status) {
  switch (status) {
    case Mr1pStatus::kSent: return Mr1pVerdict::kStatusSent;
    case Mr1pStatus::kAttempt: return Mr1pVerdict::kStatusAttempt;
    case Mr1pStatus::kTryFail: return Mr1pVerdict::kStatusTryFail;
    case Mr1pStatus::kNone: break;
  }
  DV_ASSERT_MSG(false, "echoing a status of kNone");
  return Mr1pVerdict::kStatusTryFail;
}

}  // namespace

Mr1p::Mr1p(ProcessId self, const View& initial_view, Mr1pOptions options)
    : PrimaryComponentAlgorithm(self, initial_view),
      options_(options),
      cur_primary_{0, initial_view.members},
      current_view_(initial_view) {
  const std::size_t universe = initial_view.members.universe_size();
  const std::size_t view_size = initial_view.members.count();
  formed_views_.push_back(cur_primary_);
  echo_senders_ = ProcessSet(universe);
  tryfail_callers_ = ProcessSet(universe);
  proposals_ = Tally(universe, view_size);
  attempts_ = Tally(universe, majority(view_size));
}

Session Mr1p::view_session() const {
  return Session{current_view_.id, current_view_.members};
}

void Mr1p::stage(PayloadRef<ProtocolPayload> payload) {
  DV_ASSERT(payload != nullptr);
  payload->view_id = current_view_.id;
  outbox_.push_back(std::move(payload));
}

void Mr1p::view_changed(const View& view) {
  DV_REQUIRE(view.members.contains(self_), "installed a view without self");
  current_view_ = view;
  in_primary_ = false;
  outbox_.clear();
  outbox_head_ = 0;
  unanswered_queries_.clear();
  echo_senders_.clear();
  best_echo_num_ = 0;
  best_echo_status_ = Mr1pStatus::kNone;
  resolve_sent_ = false;
  tryfail_callers_.clear();
  proposals_.reset(view.members.count());
  attempts_.reset(majority(view.members.count()));
  attempt_sent_ = false;
  tried_new_ = false;

  if (pending_.has_value()) {
    // Rebuild the R1 payload in place once every holder from the previous
    // view change (recipients, the network) has dropped it.
    if (!pending_pool_ || pending_pool_.use_count() > 1) {
      pending_pool_ = make_payload<Mr1pPendingPayload>();
    }
    pending_pool_->has_pending = true;
    pending_pool_->pending = *pending_;
    pending_pool_->num = num_;
    pending_pool_->status = status_;
    stage(pending_pool_);
  } else {
    try_new();
  }
}

void Mr1p::try_new() {
  tried_new_ = true;
  if (is_subquorum(current_view_.members, cur_primary_.members)) {
    const Session proposal = view_session();
    pending_ = proposal;
    num_ = 1;
    status_ = Mr1pStatus::kSent;

    auto propose = make_payload<Mr1pProposePayload>();
    propose->proposal = proposal;
    stage(std::move(propose));
  } else {
    pending_.reset();
    num_ = 0;
    status_ = Mr1pStatus::kNone;
  }
}

Message Mr1p::incoming_message(Message message, ProcessId sender) {
  if (message.protocol != nullptr) receive(*message.protocol, sender);
  message.protocol = nullptr;
  return message;
}

void Mr1p::incoming_messages(std::span<const Delivery> batch) {
  for (const Delivery& d : batch) {
    if (d.message->protocol != nullptr) receive(*d.message->protocol, d.sender);
  }
}

void Mr1p::receive(const ProtocolPayload& payload, ProcessId sender) {
  if (payload.view_id != current_view_.id) return;

  switch (payload.type()) {
    case PayloadType::kMr1pPending:
      handle_pending(static_cast<const Mr1pPendingPayload&>(payload), sender);
      break;
    case PayloadType::kMr1pReply:
      handle_reply(static_cast<const Mr1pReplyPayload&>(payload), sender);
      break;
    case PayloadType::kMr1pResolve:
      handle_resolve(static_cast<const Mr1pResolvePayload&>(payload), sender);
      break;
    case PayloadType::kMr1pPropose:
      handle_propose(static_cast<const Mr1pProposePayload&>(payload), sender);
      break;
    case PayloadType::kMr1pAttempt:
      handle_attempt(static_cast<const Mr1pAttemptPayload&>(payload), sender);
      break;
    case PayloadType::kStateExchange:
    case PayloadType::kAttempt:
    case PayloadType::kGcRound:
      break;  // not an MR1p payload; ignore
  }
}

std::optional<Message> Mr1p::outgoing_message_poll(const Message& app) {
  // Replies take priority: every query delivered in the previous round is
  // answered in one batched multicast.  The batch payload is reused from
  // poll to poll (the replies vector keeps its capacity) whenever the
  // previous batch has drained from the network and its recipients.
  if (!unanswered_queries_.empty()) {
    if (!reply_pool_ || reply_pool_.use_count() > 1) {
      reply_pool_ = make_payload<Mr1pReplyPayload>();
    }
    const PayloadRef<Mr1pReplyPayload>& batch = reply_pool_;
    batch->replies.clear();
    for (const Session& about : unanswered_queries_) {
      Mr1pReplyItem item;
      item.about = about;
      if (pending_.has_value() && *pending_ == about) {
        item.verdict = echo_verdict(status_);
        item.num = num_;
      } else if (knows_formed(about) && about.members.contains(self_)) {
        item.verdict = Mr1pVerdict::kFormed;
      } else if (about.members.contains(self_)) {
        item.verdict = Mr1pVerdict::kAborted;
      } else {
        continue;  // nothing useful to say
      }
      batch->replies.push_back(std::move(item));
    }
    unanswered_queries_.clear();
    if (!batch->replies.empty()) {
      batch->view_id = current_view_.id;
      Message out = app;
      out.protocol = batch;
      return out;
    }
  }

  if (outbox_head_ == outbox_.size()) return std::nullopt;
  Message out = app;
  out.protocol = std::move(outbox_[outbox_head_]);
  if (++outbox_head_ == outbox_.size()) {
    outbox_.clear();
    outbox_head_ = 0;
  }
  return out;
}

void Mr1p::handle_pending(const Mr1pPendingPayload& payload,
                          ProcessId /*sender*/) {
  if (!payload.has_pending) return;
  if (std::find(unanswered_queries_.begin(), unanswered_queries_.end(),
                payload.pending) == unanswered_queries_.end()) {
    unanswered_queries_.push_back(payload.pending);
  }
}

void Mr1p::handle_reply(const Mr1pReplyPayload& payload, ProcessId sender) {
  for (const Mr1pReplyItem& item : payload.replies) {
    if (!pending_.has_value() || item.about != *pending_) continue;
    switch (item.verdict) {
      case Mr1pVerdict::kFormed:
        adopt_formed(item.about);
        return;
      case Mr1pVerdict::kAborted:
        abandon_pending();
        return;
      case Mr1pVerdict::kStatusSent:
      case Mr1pVerdict::kStatusAttempt:
      case Mr1pVerdict::kStatusTryFail: {
        if (!pending_->members.contains(sender)) break;  // not a member
        echo_senders_.insert(sender);
        const Mr1pStatus echoed =
            item.verdict == Mr1pVerdict::kStatusSent  ? Mr1pStatus::kSent
            : item.verdict == Mr1pVerdict::kStatusAttempt
                ? Mr1pStatus::kAttempt
                : Mr1pStatus::kTryFail;
        if (item.num >= best_echo_num_) {
          best_echo_num_ = item.num;
          best_echo_status_ = echoed;
        }
        maybe_resolve();
        break;
      }
    }
    if (!pending_.has_value()) return;  // resolved inside the loop
  }
}

void Mr1p::maybe_resolve() {
  if (!pending_.has_value() || resolve_sent_) return;
  if (!is_majority_of(echo_senders_, pending_->members)) return;

  // The thesis's round 3: num becomes max+1, the call is the status carried
  // by the highest num; a call of "sent" means the attempt cannot have
  // completed anywhere, so it becomes try-fail.
  Mr1pStatus call = best_echo_status_;
  if (call == Mr1pStatus::kSent) call = Mr1pStatus::kTryFail;

  if (call == Mr1pStatus::kAttempt) {
    switch (options_.policy) {
      case Mr1pResolutionPolicy::kAdoptOnAttempt: {
        // Paxos-style completion of the possibly-formed session.
        num_ = best_echo_num_ + 1;
        resolve_sent_ = true;
        auto resolve = make_payload<Mr1pResolvePayload>();
        resolve->about = *pending_;
        resolve->call = Mr1pVerdict::kStatusAttempt;
        stage(std::move(resolve));
        adopt_formed(*pending_);
        return;
      }
      case Mr1pResolutionPolicy::kConservative: {
        // Only full presence proves the attempt dead: every member still
        // echoing means none of them formed it, and only members can form
        // it.  Short of that, keep collecting echoes (blocked).
        if (!(echo_senders_ == pending_->members)) return;
        call = Mr1pStatus::kTryFail;
        break;
      }
    }
  }

  num_ = best_echo_num_ + 1;
  status_ = Mr1pStatus::kTryFail;
  resolve_sent_ = true;
  auto resolve = make_payload<Mr1pResolvePayload>();
  resolve->about = *pending_;
  resolve->call = Mr1pVerdict::kStatusTryFail;
  stage(std::move(resolve));
}

void Mr1p::handle_resolve(const Mr1pResolvePayload& payload, ProcessId sender) {
  if (!pending_.has_value() || payload.about != *pending_) return;
  if (!pending_->members.contains(sender)) return;

  if (payload.call == Mr1pVerdict::kStatusAttempt) {
    if (options_.policy == Mr1pResolutionPolicy::kAdoptOnAttempt) {
      adopt_formed(*pending_);
    }
    return;
  }
  // try-fail: abandon once a majority of the pending session's members
  // agree (thesis: "Upon receipt of <tryfail, V> from majority of V").
  tryfail_callers_.insert(sender);
  if (is_majority_of(tryfail_callers_, pending_->members)) {
    abandon_pending();
  }
}

void Mr1p::handle_propose(const Mr1pProposePayload& payload, ProcessId sender) {
  if (!is_view_session(payload.proposal)) return;
  DV_ASSERT_MSG(current_view_.members.contains(sender),
                "MR1p traffic from a non-member of the current view");
  proposals_.add(sender);
  // "Upon receipt of <V,1> from all members of V": move to the attempt
  // stage -- but only if we proposed V ourselves (we are pending on it).
  if (attempt_sent_) return;
  if (!pending_.has_value() || *pending_ != payload.proposal) return;
  if (proposals_.reached()) {
    status_ = Mr1pStatus::kAttempt;
    num_ = 2;
    attempt_sent_ = true;

    auto attempt = make_payload<Mr1pAttemptPayload>();
    attempt->proposal = payload.proposal;
    stage(std::move(attempt));
  }
}

void Mr1p::handle_attempt(const Mr1pAttemptPayload& payload, ProcessId sender) {
  if (!is_view_session(payload.proposal)) return;
  DV_ASSERT_MSG(current_view_.members.contains(sender),
                "MR1p traffic from a non-member of the current view");
  attempts_.add(sender);
  if (in_primary_) return;
  // "Declare the new view to be a primary component when a majority of the
  // processes in it have sent a message in step 5."
  if (attempts_.reached()) {
    record_formed(payload.proposal);
    cur_primary_ = payload.proposal;
    in_primary_ = true;
    pending_.reset();
    num_ = 0;
    status_ = Mr1pStatus::kNone;
  }
}

void Mr1p::adopt_formed(const Session& session) {
  record_formed(session);
  if (session_precedes(cur_primary_, session)) cur_primary_ = session;
  pending_.reset();
  num_ = 0;
  status_ = Mr1pStatus::kNone;
  if (!tried_new_) try_new();
}

void Mr1p::abandon_pending() {
  pending_.reset();
  num_ = 0;
  status_ = Mr1pStatus::kNone;
  if (!tried_new_) try_new();
}

void Mr1p::record_formed(const Session& session) {
  if (knows_formed(session)) return;
  // The thesis's formedViews optimization: a primary equal to the full
  // initial view supersedes every earlier formation -- all processes took
  // part, so no one can ever query an older session again.
  if (session.members == initial_view_.members) {
    formed_views_.clear();
  }
  formed_views_.push_back(session);
}

bool Mr1p::knows_formed(const Session& session) const {
  return std::find(formed_views_.begin(), formed_views_.end(), session) !=
         formed_views_.end();
}

AlgorithmDebugInfo Mr1p::debug_info() const {
  AlgorithmDebugInfo info;
  info.last_primary = cur_primary_;
  info.ambiguous_count = pending_.has_value() ? 1 : 0;
  info.blocked = pending_.has_value() && !in_primary_;
  info.session_number = num_;
  return info;
}

}  // namespace dynvote
