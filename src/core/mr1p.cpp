#include "core/mr1p.hpp"

#include <algorithm>
#include <typeinfo>

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
    : PrimaryComponentAlgorithm(self, initial_view), options_(options) {
  restart();
}

bool Mr1p::restart() {
  const std::size_t universe = initial_view_.members.universe_size();
  const std::size_t view_size = initial_view_.members.count();
  cur_primary_ = Session{0, initial_view_.members};
  pending_.reset();
  num_ = 0;
  status_ = Mr1pStatus::kNone;
  formed_views_.assign(1, cur_primary_);
  in_primary_ = true;
  current_view_ = initial_view_;
  outbox_.clear();
  outbox_head_ = 0;
  unanswered_queries_.clear();
  echo_senders_ = ProcessSet(universe);
  best_echo_num_ = 0;
  best_echo_status_ = Mr1pStatus::kNone;
  resolve_sent_ = false;
  tryfail_callers_ = ProcessSet(universe);
  proposals_ = Tally(universe, view_size);
  attempts_ = Tally(universe, majority(view_size));
  tried_new_ = false;
  return true;
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
  tried_new_ = false;

  if (pending_.has_value()) {
    // Rebuild the R1 payload in place once every holder from the previous
    // view change (recipients, the network) has dropped it.
    Mr1pPendingPayload& r1 = reuse_payload(pending_pool_);
    r1.has_pending = true;
    r1.pending = *pending_;
    r1.num = num_;
    r1.status = status_;
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

    reuse_payload(propose_pool_).proposal = proposal;
    stage(propose_pool_);
  } else {
    pending_.reset();
    num_ = 0;
    status_ = Mr1pStatus::kNone;
  }
}

Message Mr1p::incoming_message(Message message, ProcessId sender) {
  PrimaryComponentAlgorithm* const self = this;
  if (message.protocol != nullptr) {
    receive(*message.protocol, sender, std::span(&self, 1));
  }
  message.protocol = nullptr;
  return message;
}

void Mr1p::incoming_messages(std::span<const Delivery> batch) {
  PrimaryComponentAlgorithm* const self = this;
  incoming_messages_to_group(std::span(&self, 1), batch);
}

void Mr1p::incoming_messages_to_group(
    std::span<PrimaryComponentAlgorithm* const> group,
    std::span<const Delivery> batch) {
  DV_ASSERT(!group.empty() && group.front() == this);
  const auto others = group.subspan(1);
  if (!shares_tallies(others)) {
    PrimaryComponentAlgorithm::incoming_messages_to_group(group, batch);
    return;
  }
  for (const Delivery& d : batch) {
    if (d.message->protocol != nullptr) {
      receive(*d.message->protocol, d.sender, group);
    }
  }
  // What each member's own receipts would have counted.
  for (PrimaryComponentAlgorithm* member : others) {
    auto& m = static_cast<Mr1p&>(*member);
    m.proposals_ = proposals_;
    m.attempts_ = attempts_;
  }
}

bool Mr1p::shares_tallies(
    std::span<PrimaryComponentAlgorithm* const> others) const {
  for (PrimaryComponentAlgorithm* member : others) {
    if (typeid(*member) != typeid(Mr1p)) return false;
    const auto& m = static_cast<const Mr1p&>(*member);
    if (m.current_view_.id != current_view_.id ||
        m.proposals_ != proposals_ || m.attempts_ != attempts_) {
      return false;
    }
  }
  return true;
}

void Mr1p::receive(const ProtocolPayload& payload, ProcessId sender,
                   std::span<PrimaryComponentAlgorithm* const> group) {
  if (payload.view_id != current_view_.id) return;
  const auto each = [group](const auto& step) {
    for (PrimaryComponentAlgorithm* member : group) {
      step(static_cast<Mr1p&>(*member));
    }
  };

  switch (payload.type()) {
    case PayloadType::kMr1pPending: {
      const auto& pending = static_cast<const Mr1pPendingPayload&>(payload);
      each([&](Mr1p& m) { m.handle_pending(pending); });
      break;
    }
    case PayloadType::kMr1pReply: {
      const auto& reply = static_cast<const Mr1pReplyPayload&>(payload);
      each([&](Mr1p& m) { m.handle_reply(reply, sender); });
      break;
    }
    case PayloadType::kMr1pResolve: {
      const auto& resolve = static_cast<const Mr1pResolvePayload&>(payload);
      each([&](Mr1p& m) { m.handle_resolve(resolve, sender); });
      break;
    }
    case PayloadType::kMr1pPropose: {
      // "Upon receipt of <V,1> from all members of V".
      const Session& proposal =
          static_cast<const Mr1pProposePayload&>(payload).proposal;
      if (reaches(proposals_, proposal, sender)) {
        each([&](Mr1p& m) { m.stage_attempt(proposal); });
      }
      break;
    }
    case PayloadType::kMr1pAttempt: {
      // "Declare the new view to be a primary component when a majority of
      // the processes in it have sent a message in step 5."
      const Session& proposal =
          static_cast<const Mr1pAttemptPayload&>(payload).proposal;
      if (reaches(attempts_, proposal, sender)) {
        each([&](Mr1p& m) { m.form(proposal); });
      }
      break;
    }
    case PayloadType::kStateExchange:
    case PayloadType::kAttempt:
    case PayloadType::kGcRound:
      break;  // not an MR1p payload; ignore
  }
}

bool Mr1p::reaches(Tally& tally, const Session& proposal, ProcessId sender) {
  if (!is_view_session(proposal)) return false;
  DV_ASSERT_MSG(current_view_.members.contains(sender),
                "MR1p traffic from a non-member of the current view");
  return tally.add(sender);
}

std::optional<Message> Mr1p::outgoing_message_poll(const Message& app) {
  // Replies take priority: every query delivered in the previous round is
  // answered in one batched multicast.  The batch payload is reused from
  // poll to poll (the replies vector keeps its capacity) whenever the
  // previous batch has drained from the network and its recipients.
  if (!unanswered_queries_.empty()) {
    Mr1pReplyPayload& batch = reuse_payload(reply_pool_);
    batch.replies.clear();
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
      batch.replies.push_back(item);
    }
    unanswered_queries_.clear();
    if (!batch.replies.empty()) {
      batch.view_id = current_view_.id;
      Message out = app;
      out.protocol = reply_pool_;
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

void Mr1p::handle_pending(const Mr1pPendingPayload& payload) {
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
        stage_resolve(Mr1pVerdict::kStatusAttempt);
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
  stage_resolve(Mr1pVerdict::kStatusTryFail);
}

void Mr1p::stage_resolve(Mr1pVerdict call) {
  Mr1pResolvePayload& resolve = reuse_payload(resolve_pool_);
  resolve.about = *pending_;
  resolve.call = call;
  stage(resolve_pool_);
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

void Mr1p::stage_attempt(const Session& proposal) {
  // Move to the attempt stage only if we proposed V ourselves (we are
  // pending on it).
  if (!pending_.has_value() || *pending_ != proposal) return;
  status_ = Mr1pStatus::kAttempt;
  num_ = 2;
  reuse_payload(attempt_pool_).proposal = proposal;
  stage(attempt_pool_);
}

void Mr1p::form(const Session& proposal) {
  if (in_primary_) return;
  record_formed(proposal);
  cur_primary_ = proposal;
  in_primary_ = true;
  pending_.reset();
  num_ = 0;
  status_ = Mr1pStatus::kNone;
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
