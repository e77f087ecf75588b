#include "core/ykd_family.hpp"

#include <algorithm>
#include <typeinfo>

#include "core/quorum.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace dynvote {

YkdFamilyBase::YkdFamilyBase(ProcessId self, const View& initial_view,
                             PruneMode prune_mode, bool filter_constraints)
    : PrimaryComponentAlgorithm(self, initial_view),
      prune_mode_(prune_mode),
      filter_constraints_(filter_constraints) {
  const std::size_t universe = initial_view.members.universe_size();
  const Session genesis{0, initial_view.members};
  last_primary_ = genesis;
  state_pool_ = make_payload<StateExchangePayload>();
  state_pool_->last_formed.assign(universe, genesis);
  current_view_ = initial_view;
  view_size_ = initial_view.members.count();
  attempts_ = Tally(universe, view_size_);
  proposed_ = Session{0, ProcessSet(universe)};
  states_.reset_universe(universe);
}

void YkdFamilyBase::view_changed(const View& view) {
  DV_REQUIRE(view.members.contains(self_), "installed a view without self");
  current_view_ = view;
  view_size_ = view.members.count();
  in_primary_ = false;
  blocked_ = false;
  stage_ = Stage::kExchanging;
  states_.clear();
  attempts_.reset(view_size_);
  outbox_.clear();  // anything staged for the old view is stale
  outbox_head_ = 0;

  // Rebuild our round-1 payload in place when we are its sole owner again
  // (recipients cleared their exchange tables, the network flushed); the
  // vectors inside keep their capacity, so steady-state view changes do
  // not allocate for it, and lastFormed already lives there.
  StateExchangePayload& state = sole_state();
  state.session_number = session_number_;
  state.last_primary = last_primary_;
  state.ambiguous = ambiguous_;
  stage(state_pool_);
}

StateExchangePayload& YkdFamilyBase::sole_state() {
  if (state_pool_.use_count() > 1) {
    auto copy = make_payload<StateExchangePayload>();
    copy->last_formed = state_pool_->last_formed;
    state_pool_ = std::move(copy);
  }
  return *state_pool_;
}

void YkdFamilyBase::record_primary(const Session& s) {
  last_primary_ = s;
  std::vector<Session>& last_formed = sole_state().last_formed;
  s.members.for_each([&](ProcessId q) { last_formed[q] = s; });
}

void YkdFamilyBase::stage(PayloadRef<ProtocolPayload> payload) {
  DV_ASSERT(payload != nullptr);
  payload->view_id = current_view_.id;
  outbox_.push_back(std::move(payload));
}

Message YkdFamilyBase::incoming_message(Message message, ProcessId sender) {
  if (message.protocol != nullptr) receive(message.protocol, sender);
  message.protocol = nullptr;
  return message;
}

void YkdFamilyBase::incoming_messages(std::span<const Delivery> batch) {
  for (const Delivery& d : batch) {
    if (d.message->protocol != nullptr) receive(d.message->protocol, d.sender);
  }
}

void YkdFamilyBase::receive(const PayloadPtr& payload, ProcessId sender) {
  // Discard traffic from any view other than the current one.
  if (payload->view_id != current_view_.id) return;

  switch (payload->type()) {
    case PayloadType::kStateExchange: {
      if (stage_ != Stage::kExchanging) break;  // stale duplicate round
      DV_ASSERT_MSG(current_view_.members.contains(sender),
                    "state from a non-member of the current view");
      states_.set(sender, static_payload_cast<const StateExchangePayload>(
                              PayloadPtr(payload)));
      if (states_.size() == view_size_) on_exchange_complete();
      break;
    }
    case PayloadType::kAttempt: {
      if (stage_ != Stage::kAttempting) break;
      const auto& attempt = static_cast<const AttemptPayload&>(*payload);
      if (attempt.proposal != proposed_) break;
      DV_ASSERT_MSG(current_view_.members.contains(sender),
                    "attempt from a non-member of the current view");
      attempts_.add(sender);
      if (attempts_.reached()) form_primary();
      break;
    }
    case PayloadType::kGcRound:
    case PayloadType::kMr1pPending:
    case PayloadType::kMr1pReply:
    case PayloadType::kMr1pResolve:
    case PayloadType::kMr1pPropose:
    case PayloadType::kMr1pAttempt:
      handle_extra_payload(*payload, sender);
      break;
  }
}

std::optional<Message> YkdFamilyBase::outgoing_message_poll(const Message& app) {
  if (outbox_head_ == outbox_.size()) return std::nullopt;
  Message out = app;
  out.protocol = std::move(outbox_[outbox_head_]);
  if (++outbox_head_ == outbox_.size()) {
    outbox_.clear();
    outbox_head_ = 0;
  }
  return out;
}

bool YkdFamilyBase::allow_attempt(const CombinedKnowledge& /*knowledge*/,
                                  const StateMap& /*states*/) const {
  return true;
}

void YkdFamilyBase::on_primary_formed() { ambiguous_.clear(); }

void YkdFamilyBase::handle_extra_payload(const ProtocolPayload& payload,
                                         ProcessId /*sender*/) {
  DV_LOG_DEBUG("ignoring payload type "
               << static_cast<int>(payload.type()) << " at process " << self_);
}

const CombinedKnowledge& YkdFamilyBase::compute_combined() const {
  CombinedKnowledge& k = combined_scratch_;
  k.max_session = 0;
  k.max_primary = Session{0, initial_view_.members};
  k.constraints.clear();

  for (const auto& [q, state] : states_) {
    k.max_session = std::max(k.max_session, state->session_number);
    if (session_precedes(k.max_primary, state->last_primary)) {
      k.max_primary = state->last_primary;
    }
  }

  for (const auto& [q, state] : states_) {
    for (const Session& s : state->ambiguous) {
      if (filter_constraints_ && s.number <= k.max_primary.number) continue;
      if (std::find(k.constraints.begin(), k.constraints.end(), s) !=
          k.constraints.end()) {
        continue;
      }
      if (filter_constraints_ && provably_unformed(s, states_)) continue;
      k.constraints.push_back(s);
    }
  }
  return k;
}

bool YkdFamilyBase::provably_unformed(const Session& s,
                                      const StateMap& states) const {
  // All members of S must be present to testify.
  if (!s.members.is_subset_of(current_view_.members)) return false;

  // A member m that formed S recorded lastFormed(q) = S for every q in S at
  // formation time.  For any session that survived the maxPrimary.number
  // filter, the entry for S's lowest member cannot have been overwritten:
  // an overwriting formation F would satisfy F.number > S.number and raise
  // m's lastPrimary past S, which would have filtered S out already.  So a
  // single entry per member is a sound witness.
  const ProcessId probe = s.members.lowest();
  bool unformed = true;
  s.members.for_each([&](ProcessId m) {
    const StateExchangePayload* st = states.get(m);
    DV_ASSERT_MSG(st != nullptr, "member state missing after subset check");
    if (st->last_primary == s) unformed = false;
    if (probe < st->last_formed.size() && st->last_formed[probe] == s) {
      unformed = false;
    }
  });
  return unformed;
}

ExchangeVerdict YkdFamilyBase::shared_verdict() const {
  // Every member completing this view holds a state from the view's lowest
  // member; when delivery shared that object, so does the memo on it.
  const StateExchangePayload* anchor =
      states_.get(current_view_.members.lowest());
  DV_ASSERT_MSG(anchor != nullptr, "complete exchange lacks the lowest member");
  ExchangeVerdict& memo = anchor->verdict_memo;
  const bool hit = memo.variant != nullptr &&
                   memo.view_id == current_view_.id &&
                   *memo.variant == typeid(*this) &&
                   memo.filtered == filter_constraints_;
  if (!hit) memo = evaluate_exchange();
  return memo;
}

ExchangeVerdict YkdFamilyBase::evaluate_exchange() const {
  const CombinedKnowledge& knowledge = compute_combined();
  ExchangeVerdict verdict;
  verdict.view_id = current_view_.id;
  verdict.variant = &typeid(*this);
  verdict.filtered = filter_constraints_;
  verdict.max_session = knowledge.max_session;
  verdict.max_primary = knowledge.max_primary;

  // DECIDE (Figure 3-4): the new view must be a subquorum of maxPrimary and
  // of every constraint session.
  bool decide = is_subquorum(current_view_.members, knowledge.max_primary.members);
  for (const Session& s : knowledge.constraints) {
    if (!decide) break;
    decide = is_subquorum(current_view_.members, s.members);
  }
  verdict.blocked = decide && !allow_attempt(knowledge, states_);
  verdict.attempt = decide && !verdict.blocked;
  return verdict;
}

void YkdFamilyBase::on_exchange_complete() {
  const ExchangeVerdict verdict = shared_verdict();

  // RESOLVE / ACCEPT: adopt the highest-numbered formed session containing
  // this process.  If q formed (or adopted) a session F with self in it,
  // q's lastFormed(self) records the latest such F, so scanning each
  // member's lastPrimary and lastFormed(self) finds the maximum.  Every
  // lastFormed entry was its holder's lastPrimary when written, and a
  // lastPrimary only moves forward, so no candidate follows maxPrimary:
  // unless maxPrimary follows our own lastPrimary, the scan would adopt
  // nothing and is skipped (DESIGN.md §4d).
  if (session_precedes(last_primary_, verdict.max_primary)) {
    Session best = last_primary_;
    for (const auto& [q, state] : states_) {
      const Session& lp = state->last_primary;
      if (lp.members.contains(self_) && session_precedes(best, lp)) best = lp;
      if (self_ < state->last_formed.size()) {
        const Session& lf = state->last_formed[self_];
        if (lf.members.contains(self_) && session_precedes(best, lf)) {
          best = lf;
        }
      }
    }
    if (session_precedes(last_primary_, best)) record_primary(best);
  }

  // RESOLVE / DELETE: shed stored ambiguous sessions per the variant's
  // pruning mode.  (This never changes a *filtered* decision -- the pool is
  // built from the received states and filtered the same way everywhere --
  // it changes what is stored and shipped, and what an unfiltered decision
  // like DFLS's is constrained by next time.)
  switch (prune_mode_) {
    case PruneMode::kFull:
      std::erase_if(ambiguous_, [&](const Session& s) {
        return s.number <= last_primary_.number ||
               provably_unformed(s, states_);
      });
      break;
    case PruneMode::kGlobalSuperseded:
      std::erase_if(ambiguous_, [&](const Session& s) {
        return s.number <= verdict.max_primary.number;
      });
      break;
    case PruneMode::kUnformedOnly:
      std::erase_if(ambiguous_, [&](const Session& s) {
        return provably_unformed(s, states_);
      });
      break;
  }

  blocked_ = verdict.blocked;
  states_.clear();
  if (!verdict.attempt) {
    stage_ = Stage::kIdle;
    return;
  }

  session_number_ = verdict.max_session + 1;
  proposed_ = Session{session_number_, current_view_.members};
  ambiguous_.push_back(proposed_);
  stage_ = Stage::kAttempting;
  attempts_.reset(view_size_);

  // Reuse the previous attempt payload once its last outside reference
  // (the network's copy from the previous round 2) is gone.
  if (!attempt_pool_ || attempt_pool_.use_count() > 1) {
    attempt_pool_ = make_payload<AttemptPayload>();
  }
  attempt_pool_->proposal = proposed_;
  stage(attempt_pool_);
}

void YkdFamilyBase::form_primary() {
  // A member's session counter is never below its lastPrimary's number,
  // and the proposal is numbered past every member's counter.  The ACCEPT
  // bound relies on formations moving lastPrimary forward.
  DV_ASSERT_MSG(session_precedes(last_primary_, proposed_),
                "a formed session must follow lastPrimary");
  record_primary(proposed_);
  in_primary_ = true;
  stage_ = Stage::kIdle;
  on_primary_formed();
}

AlgorithmDebugInfo YkdFamilyBase::debug_info() const {
  AlgorithmDebugInfo info;
  info.last_primary = last_primary_;
  info.ambiguous_count = ambiguous_.size();
  info.blocked = blocked_;
  info.session_number = session_number_;
  return info;
}

}  // namespace dynvote
