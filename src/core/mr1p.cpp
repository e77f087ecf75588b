#include "core/mr1p.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
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

Mr1pStatus echoed_status(Mr1pVerdict verdict) {
  return verdict == Mr1pVerdict::kStatusSent      ? Mr1pStatus::kSent
         : verdict == Mr1pVerdict::kStatusAttempt ? Mr1pStatus::kAttempt
                                                  : Mr1pStatus::kTryFail;
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
  echo_ = {.senders = ProcessSet(universe),
           .tryfail_callers = ProcessSet(universe)};
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
  echo_ = {.senders = ProcessSet(view.members.universe_size()),
           .tryfail_callers = ProcessSet(view.members.universe_size())};
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

/// One batch's view of a group that shares its tallies (DESIGN.md §4d).
/// Its pending classes are split from the members at the batch's first
/// reply or resolve, and whether the leader's query list stands for every
/// member's is read at its first pending query: nothing earlier in the
/// batch writes a query list or an echo state, and the only step before
/// them that moves a pending session, a formation, empties every member's.
class Mr1p::GroupBatch {
 public:
  explicit GroupBatch(std::span<PrimaryComponentAlgorithm* const> group)
      : group_(group) {}

  std::span<PrimaryComponentAlgorithm* const> group() const { return group_; }
  Mr1p& member(std::size_t i) const {
    return static_cast<Mr1p&>(*group_[i]);
  }

  /// Round 1: does the leader's query list stand for every member's?
  bool shares_queries() {
    if (queries_ == Queries::kUnread) {
      const std::vector<Session>& lead = member(0).unanswered_queries_;
      queries_ = Queries::kShared;
      for (std::size_t i = 1; i < group_.size(); ++i) {
        if (member(i).unanswered_queries_ != lead) queries_ = Queries::kOwn;
      }
      queried_ = lead.size();
    }
    return queries_ == Queries::kShared;
  }

  /// Rounds 2 and 3: `step(leader, cls)` at each live class's leader,
  /// which returns false when the class ended, and `step(m, {m})` at each
  /// member of an ended class, or past the bound, on its own.
  template <typename Step>
  void to_classes(const Step& step) {
    if (!split_) split();
    for (Run& run : runs_) {
      const PendingClass cls(members_.data() + run.begin, run.end - run.begin);
      if (cls.empty()) continue;
      if (run.live) {
        run.live = step(*cls.front(), cls);
        continue;
      }
      for (std::size_t k = 0; k < cls.size(); ++k) {
        (void)step(*cls[k], cls.subspan(k, 1));
      }
    }
  }

  /// Batch end: every member takes the leader's query list, if the leader
  /// built it for them, and its live class's echo state.
  void finish() {
    const Mr1p& lead = member(0);
    if (queries_ == Queries::kShared &&
        lead.unanswered_queries_.size() != queried_) {
      for (std::size_t i = 1; i < group_.size(); ++i) {
        member(i).unanswered_queries_ = lead.unanswered_queries_;
      }
    }
    for (const Run& run : runs_) {
      if (!run.live) continue;
      for (std::size_t k = run.begin + 1; k < run.end; ++k) {
        members_[k]->echo_ = members_[run.begin]->echo_;
      }
    }
  }

 private:
  /// Distinct classes a batch follows; members past them receive rounds 2
  /// and 3 on their own.  A view's members hold at most two distinct
  /// pending sessions in nearly every batch.
  static constexpr std::size_t kMaxClasses = 4;
  enum class Queries { kUnread, kShared, kOwn };
  /// members_[begin, end): one class, or (not live) members that each
  /// receive on their own.
  struct Run {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool live = false;
  };

  /// Sorts the pending members into runs, class by class, each ascending;
  /// the last run holds those past kMaxClasses.
  void split() {
    split_ = true;
    constexpr std::uint8_t kNoRun = kMaxClasses + 1;
    std::array<std::uint8_t, ProcessSet::kMaxUniverse> run_of{};
    std::array<const Mr1p*, kMaxClasses> leaders{};
    std::size_t classes = 0;
    for (std::size_t i = 0; i < group_.size(); ++i) {
      const Mr1p& m = member(i);
      if (!m.pending_.has_value()) {
        run_of[i] = kNoRun;
        continue;
      }
      std::size_t r = 0;
      while (r < classes && !leaders[r]->shares_pending_class(m)) ++r;
      if (r == classes && classes < kMaxClasses) leaders[classes++] = &m;
      run_of[i] = static_cast<std::uint8_t>(r);
      ++runs_[r].end;
    }
    std::size_t begin = 0;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      const std::size_t size = runs_[r].end;
      runs_[r] = Run{begin, begin, r < kMaxClasses};
      begin += size;
    }
    for (std::size_t i = 0; i < group_.size(); ++i) {
      if (run_of[i] == kNoRun) continue;
      members_[runs_[run_of[i]].end++] = &member(i);
    }
  }

  std::span<PrimaryComponentAlgorithm* const> group_;
  Queries queries_ = Queries::kUnread;
  /// The leader's query count when the lists were read.
  std::size_t queried_ = 0;
  bool split_ = false;
  std::array<Run, kMaxClasses + 1> runs_{};
  std::array<Mr1p*, ProcessSet::kMaxUniverse> members_;
};

Message Mr1p::incoming_message(Message message, ProcessId sender) {
  const Delivery delivery{sender, &message};
  incoming_messages(std::span(&delivery, 1));
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
  GroupBatch receipts(group);
  for (const Delivery& d : batch) {
    if (d.message->protocol != nullptr) {
      receive(*d.message->protocol, d.sender, receipts);
    }
  }
  // What each member's own receipts would have counted.
  receipts.finish();
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

bool Mr1p::shares_pending_class(const Mr1p& other) const {
  return *pending_ == *other.pending_ && echo_ == other.echo_ &&
         options_.policy == other.options_.policy;
}

void Mr1p::receive(const ProtocolPayload& payload, ProcessId sender,
                   GroupBatch& batch) {
  if (payload.view_id != current_view_.id) return;
  const auto each = [&batch](const auto& step) {
    for (PrimaryComponentAlgorithm* member : batch.group()) {
      step(static_cast<Mr1p&>(*member));
    }
  };

  switch (payload.type()) {
    case PayloadType::kMr1pPending: {
      const auto& pending = static_cast<const Mr1pPendingPayload&>(payload);
      if (batch.shares_queries()) {
        handle_pending(pending);
      } else {
        each([&](Mr1p& m) { m.handle_pending(pending); });
      }
      break;
    }
    case PayloadType::kMr1pReply: {
      const auto& reply = static_cast<const Mr1pReplyPayload&>(payload);
      batch.to_classes([&](Mr1p& leader, PendingClass cls) {
        return leader.handle_reply(reply.replies, sender, cls);
      });
      break;
    }
    case PayloadType::kMr1pResolve: {
      const auto& resolve = static_cast<const Mr1pResolvePayload&>(payload);
      batch.to_classes([&](Mr1p& leader, PendingClass cls) {
        return leader.handle_resolve(resolve, sender, cls);
      });
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

template <typename Step>
void Mr1p::end_class(PendingClass cls, const Step& step) {
  DV_ASSERT(cls.front() == this);
  for (Mr1p* m : cls) {
    if (m != this) m->echo_ = echo_;
    step(*m);
  }
}

bool Mr1p::handle_reply(std::span<const Mr1pReplyItem> items, ProcessId sender,
                        PendingClass cls) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Mr1pReplyItem& item = items[i];
    if (!pending_.has_value() || item.about != *pending_) continue;
    switch (item.verdict) {
      case Mr1pVerdict::kFormed:
        end_class(cls, [&](Mr1p& m) { m.adopt_formed(item.about); });
        return false;
      case Mr1pVerdict::kAborted:
        end_class(cls, [](Mr1p& m) { m.abandon_pending(); });
        return false;
      case Mr1pVerdict::kStatusSent:
      case Mr1pVerdict::kStatusAttempt:
      case Mr1pVerdict::kStatusTryFail: {
        if (!pending_->members.contains(sender)) break;  // not a member
        echo_.senders.insert(sender);
        if (item.num >= echo_.best_num) {
          echo_.best_num = item.num;
          echo_.best_status = echoed_status(item.verdict);
        }
        if (maybe_resolve(cls)) break;
        // The session was adopted, and a member may be pending on the view
        // now: each reads the rest of the reply on its own.
        const auto rest = items.subspan(i + 1);
        for (std::size_t k = 0; k < cls.size(); ++k) {
          (void)cls[k]->handle_reply(rest, sender, cls.subspan(k, 1));
        }
        return false;
      }
    }
  }
  return true;
}

bool Mr1p::maybe_resolve(PendingClass cls) {
  if (echo_.resolve_sent) return true;
  if (!is_majority_of(echo_.senders, pending_->members)) return true;

  // The thesis's round 3: num becomes max+1, the call is the status carried
  // by the highest num; a call of "sent" means the attempt cannot have
  // completed anywhere, so it becomes try-fail.
  Mr1pStatus call = echo_.best_status;
  if (call == Mr1pStatus::kSent) call = Mr1pStatus::kTryFail;
  const std::uint64_t num = echo_.best_num + 1;

  if (call == Mr1pStatus::kAttempt) {
    switch (options_.policy) {
      case Mr1pResolutionPolicy::kAdoptOnAttempt: {
        // Paxos-style completion of the possibly-formed session.
        echo_.resolve_sent = true;
        const Session session = *pending_;
        end_class(cls, [&](Mr1p& m) {
          m.num_ = num;
          m.stage_resolve(Mr1pVerdict::kStatusAttempt);
          m.adopt_formed(session);
        });
        return false;
      }
      case Mr1pResolutionPolicy::kConservative: {
        // Only full presence proves the attempt dead: every member still
        // echoing means none of them formed it, and only members can form
        // it.  Short of that, keep collecting echoes (blocked).
        if (!(echo_.senders == pending_->members)) return true;
        break;
      }
    }
  }

  echo_.resolve_sent = true;
  for (Mr1p* m : cls) {
    m->num_ = num;
    m->status_ = Mr1pStatus::kTryFail;
    m->stage_resolve(Mr1pVerdict::kStatusTryFail);
  }
  return true;
}

void Mr1p::stage_resolve(Mr1pVerdict call) {
  Mr1pResolvePayload& resolve = reuse_payload(resolve_pool_);
  resolve.about = *pending_;
  resolve.call = call;
  stage(resolve_pool_);
}

bool Mr1p::handle_resolve(const Mr1pResolvePayload& payload, ProcessId sender,
                          PendingClass cls) {
  if (!pending_.has_value() || payload.about != *pending_) return true;
  if (!pending_->members.contains(sender)) return true;

  if (payload.call == Mr1pVerdict::kStatusAttempt) {
    if (options_.policy != Mr1pResolutionPolicy::kAdoptOnAttempt) return true;
    end_class(cls, [&](Mr1p& m) { m.adopt_formed(payload.about); });
    return false;
  }
  // try-fail: abandon once a majority of the pending session's members
  // agree (thesis: "Upon receipt of <tryfail, V> from majority of V").
  echo_.tryfail_callers.insert(sender);
  if (!is_majority_of(echo_.tryfail_callers, pending_->members)) return true;
  end_class(cls, [](Mr1p& m) { m.abandon_pending(); });
  return false;
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
