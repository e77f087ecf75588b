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
  last_formed_.assign(universe, genesis);
  current_view_ = initial_view;
  view_size_ = initial_view.members.count();
  attempts_received_ = ProcessSet(universe);
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
  attempts_received_.clear();
  attempts_count_ = 0;
  outbox_.clear();  // anything staged for the old view is stale
  outbox_head_ = 0;

  // Rebuild our round-1 payload in place when we are its sole owner again
  // (recipients cleared their exchange tables, the network flushed); the
  // vectors inside keep their capacity, so steady-state view changes do
  // not allocate for it.  When the sole-owned payload was filled at the
  // current state generation it is already byte-identical, so the copies
  // (last_formed_ alone is universe-sized) are skipped outright.
  const bool pool_fresh = state_pool_ && state_pool_.use_count() == 1 &&
                          state_pool_version_ == state_version_;
  if (!pool_fresh) {
    if (!state_pool_ || state_pool_.use_count() > 1) {
      state_pool_ = make_payload<StateExchangePayload>();
    }
    state_pool_->session_number = session_number_;
    state_pool_->last_primary = last_primary_;
    state_pool_->ambiguous = ambiguous_;
    state_pool_->last_formed = last_formed_;
    state_pool_version_ = state_version_;
  }
  // We hold the only reference here, so nobody still reads the previous
  // view's verdict; clearing it matters because a world restored from a
  // snapshot replays view ids, and a kept memo could match one of them.
  state_pool_->verdict_memo = {};
  stage(state_pool_);
}

void YkdFamilyBase::stage(PayloadRef<ProtocolPayload> payload) {
  DV_ASSERT(payload != nullptr);
  payload->view_id = current_view_.id;
  outbox_.push_back(std::move(payload));
}

Message YkdFamilyBase::incoming_message(Message message, ProcessId sender) {
  PayloadPtr payload = std::move(message.protocol);
  message.protocol = nullptr;
  if (payload == nullptr) return message;

  // Discard traffic from any view other than the current one.
  if (payload->view_id != current_view_.id) return message;

  switch (payload->type()) {
    case PayloadType::kStateExchange: {
      if (stage_ != Stage::kExchanging) break;  // stale duplicate round
      DV_ASSERT_MSG(current_view_.members.contains(sender),
                    "state from a non-member of the current view");
      states_.set(sender, static_payload_cast<const StateExchangePayload>(
                              std::move(payload)));
      if (states_.size() == view_size_) on_exchange_complete();
      break;
    }
    case PayloadType::kAttempt: {
      if (stage_ != Stage::kAttempting) break;
      const auto& attempt = static_cast<const AttemptPayload&>(*payload);
      if (attempt.proposal != proposed_) break;
      // Senders are members (the payload carries this view's id), so the
      // count of distinct ones reaches the view size exactly at set equality.
      DV_ASSERT_MSG(current_view_.members.contains(sender),
                    "attempt from a non-member of the current view");
      if (attempts_received_.contains(sender)) break;
      attempts_received_.insert(sender);
      if (++attempts_count_ == view_size_) form_primary();
      break;
    }
    default:
      handle_extra_payload(*payload, sender);
      break;
  }
  return message;
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
  verdict.max_primary_number = knowledge.max_primary.number;

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
  // member's lastPrimary and lastFormed(self) finds the maximum.
  Session best = last_primary_;
  for (const auto& [q, state] : states_) {
    const Session& lp = state->last_primary;
    if (lp.members.contains(self_) && session_precedes(best, lp)) best = lp;
    if (self_ < state->last_formed.size()) {
      const Session& lf = state->last_formed[self_];
      if (lf.members.contains(self_) && session_precedes(best, lf)) best = lf;
    }
  }
  if (session_precedes(last_primary_, best)) {
    last_primary_ = best;
    best.members.for_each([&](ProcessId q) { last_formed_[q] = best; });
    note_state_mutated();
  }

  // RESOLVE / DELETE: shed stored ambiguous sessions per the variant's
  // pruning mode.  (This never changes a *filtered* decision -- the pool is
  // built from the received states and filtered the same way everywhere --
  // it changes what is stored and shipped, and what an unfiltered decision
  // like DFLS's is constrained by next time.)
  std::size_t pruned = 0;
  switch (prune_mode_) {
    case PruneMode::kFull:
      pruned = std::erase_if(ambiguous_, [&](const Session& s) {
        return s.number <= last_primary_.number ||
               provably_unformed(s, states_);
      });
      break;
    case PruneMode::kGlobalSuperseded:
      pruned = std::erase_if(ambiguous_, [&](const Session& s) {
        return s.number <= verdict.max_primary_number;
      });
      break;
    case PruneMode::kUnformedOnly:
      pruned = std::erase_if(ambiguous_, [&](const Session& s) {
        return provably_unformed(s, states_);
      });
      break;
  }
  if (pruned != 0) note_state_mutated();

  blocked_ = verdict.blocked;
  states_.clear();
  if (!verdict.attempt) {
    stage_ = Stage::kIdle;
    return;
  }

  session_number_ = verdict.max_session + 1;
  proposed_ = Session{session_number_, current_view_.members};
  ambiguous_.push_back(proposed_);
  note_state_mutated();
  stage_ = Stage::kAttempting;
  attempts_received_.clear();
  attempts_count_ = 0;

  // Reuse the previous attempt payload once its last outside reference
  // (the network's copy from the previous round 2) is gone.
  if (!attempt_pool_ || attempt_pool_.use_count() > 1) {
    attempt_pool_ = make_payload<AttemptPayload>();
  }
  attempt_pool_->proposal = proposed_;
  stage(attempt_pool_);
}

void YkdFamilyBase::form_primary() {
  last_primary_ = proposed_;
  in_primary_ = true;
  proposed_.members.for_each([&](ProcessId q) { last_formed_[q] = proposed_; });
  stage_ = Stage::kIdle;
  note_state_mutated();
  on_primary_formed();
}

namespace {

void encode_sessions(Encoder& enc, const std::vector<Session>& sessions) {
  enc.put_varint(sessions.size());
  for (const Session& s : sessions) s.encode(enc);
}

std::vector<Session> decode_sessions(Decoder& dec, std::size_t universe) {
  const std::uint64_t n = dec.get_varint();
  if (n > 1'000'000 || n > dec.remaining()) {
    throw DecodeError("implausible session vector length");
  }
  std::vector<Session> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(Session::decode(dec, universe));
  }
  return out;
}

void encode_staged_payload(Encoder& enc, const ProtocolPayload& payload) {
  enc.put_bytes(encode_payload(payload));
}

PayloadPtr decode_staged_payload(Decoder& dec, std::size_t universe) {
  const std::vector<std::byte> bytes = dec.get_bytes();
  return decode_payload(bytes, universe);
}

}  // namespace

void YkdFamilyBase::save(Encoder& enc) const {
  last_primary_.encode(enc);
  encode_sessions(enc, last_formed_);
  encode_sessions(enc, ambiguous_);
  enc.put_varint(session_number_);
  enc.put_bool(in_primary_);
  enc.put_bool(blocked_);
  current_view_.encode(enc);
  enc.put_u8(static_cast<std::uint8_t>(stage_));

  // The state map is ordered by process id, so identical algorithm states
  // always produce identical snapshot bytes.
  enc.put_varint(states_.size());
  for (const auto& [q, state] : states_) {
    enc.put_varint(q);
    encode_staged_payload(enc, *state);
  }

  attempts_received_.encode(enc);
  proposed_.encode(enc);
  // Only the live range survives a checkpoint: entries before outbox_head_
  // were already polled, so a restored instance re-packs from zero.
  enc.put_varint(outbox_.size() - outbox_head_);
  for (std::size_t i = outbox_head_; i < outbox_.size(); ++i) {
    encode_staged_payload(enc, *outbox_[i]);
  }
  save_extra(enc);
}

void YkdFamilyBase::load(Decoder& dec) {
  const std::size_t universe = initial_view_.members.universe_size();
  last_primary_ = Session::decode(dec, universe);
  last_formed_ = decode_sessions(dec, universe);
  if (last_formed_.size() != universe) {
    throw DecodeError("lastFormed table does not have one entry per process");
  }
  ambiguous_ = decode_sessions(dec, universe);
  session_number_ = dec.get_varint();
  in_primary_ = dec.get_bool();
  blocked_ = dec.get_bool();
  current_view_ = View::decode(dec, universe);
  const std::uint8_t raw_stage = dec.get_u8();
  if (raw_stage > static_cast<std::uint8_t>(Stage::kAttempting)) {
    throw DecodeError("bad YKD stage");
  }
  stage_ = static_cast<Stage>(raw_stage);

  const std::uint64_t state_count = dec.get_varint();
  if (state_count > universe) {
    throw DecodeError("more exchange states than processes");
  }
  states_.clear();
  for (std::uint64_t i = 0; i < state_count; ++i) {
    const ProcessId q = static_cast<ProcessId>(dec.get_varint());
    if (q >= universe) {
      throw DecodeError("exchange state from an out-of-universe process");
    }
    PayloadPtr payload = decode_staged_payload(dec, universe);
    if (payload->type() != PayloadType::kStateExchange) {
      throw DecodeError("exchange map entry is not a state-exchange payload");
    }
    states_.set(q, static_payload_cast<const StateExchangePayload>(
                       std::move(payload)));
  }

  attempts_received_ = ProcessSet::decode(dec, universe);
  proposed_ = Session::decode(dec, universe);
  view_size_ = current_view_.members.count();
  attempts_count_ = attempts_received_.count();
  const std::uint64_t staged = dec.get_varint();
  if (staged > 1'000'000) throw DecodeError("implausible outbox length");
  outbox_.clear();
  outbox_head_ = 0;
  for (std::uint64_t i = 0; i < staged; ++i) {
    outbox_.push_back(decode_staged_payload(dec, universe));
  }
  note_state_mutated();  // restored fields: the pooled payload is stale
  load_extra(dec);
}

void YkdFamilyBase::save_extra(Encoder& /*enc*/) const {}

void YkdFamilyBase::load_extra(Decoder& /*dec*/) {}

AlgorithmDebugInfo YkdFamilyBase::debug_info() const {
  AlgorithmDebugInfo info;
  info.last_primary = last_primary_;
  info.ambiguous_count = ambiguous_.size();
  info.blocked = blocked_;
  info.session_number = session_number_;
  return info;
}

}  // namespace dynvote
