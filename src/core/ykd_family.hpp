// Shared engine for the YKD family of dynamic voting algorithms.
//
// YKD, unoptimized YKD, DFLS and 1-pending all follow the same two-round
// skeleton (thesis §3.1, Figures 3-2..3-4):
//
//   round 1  every member of the new view multicasts its full state
//            (session counter, lastPrimary, ambiguous sessions, lastFormed);
//   decide   once state from *every* member has arrived, each process runs
//            the same deterministic LEARN / RESOLVE / COMPUTE / DECIDE on
//            the identical combined knowledge;
//   round 2  if the decision is to attempt, multicast an attempt message;
//            the primary is formed once attempts from every member arrive.
//
// The variants differ only in (a) whether the storage-pruning optimization
// runs (YKD yes, unoptimized/DFLS no), (b) when ambiguous sessions are
// deleted after a successful formation (immediately vs. DFLS's extra
// round), and (c) whether a pending ambiguous session blocks new attempts
// (1-pending).  Those knobs are the virtual hooks below.
//
// Decision-time interpretation.  The thesis states the optimization "does
// not provide additional information -- it merely helps remove redundant
// information", and reports identical availability for YKD and unoptimized
// YKD.  We realize that by construction: DECIDE always evaluates the
// constraint pool from the *combined* received state --
//
//   pool = { S in union of everyone's ambiguous lists
//            : S.number > maxPrimary.number }
//          minus sessions provably never formed (every member of S is in
//          the current view and none of their states records forming S)
//
// -- so pruning a process's *stored* list (which only removes sessions that
// this filter would drop anyway) cannot change any decision.
//
// Evaluated once per view.  COMPUTE, DECIDE and allow_attempt read only the
// view, the received states and the variant -- never `self` -- so they form
// a pure verdict (evaluate_exchange) that every member would compute alike.
// The first member to complete the view caches it on the lowest member's
// round-1 payload, which every member completing the view holds when
// delivery shares one object (the simulated GCS); the rest reuse it and run
// only the per-process ACCEPT and prune steps.  A member holding a private
// copy of that payload (a real transport) finds no memo and computes the
// same verdict itself.  The verdict carries maxPrimary, and ACCEPT scans
// the table only when maxPrimary follows this process's lastPrimary: every
// lastFormed entry is a past lastPrimary of its holder, so otherwise
// nothing could be adopted.  DESIGN.md §4d has the soundness argument.
//
// lastFormed, the one universe-sized table of the state, lives in the
// process's own pooled round-1 payload (state_pool_).  It is copied only
// when that payload must be restaged or lastFormed written while another
// holder still has it (DESIGN.md §4e).
#pragma once

#include <cstdint>
#include <vector>

#include "core/algorithm.hpp"
#include "core/payload.hpp"
#include "core/quorum.hpp"

namespace dynvote {

/// The deterministic summary every member computes from the round-1 states
/// (the thesis's COMPUTE step plus the decision-time filtering).
struct CombinedKnowledge {
  SessionNumber max_session = 0;
  /// Highest-numbered lastPrimary reported by any member.
  Session max_primary;
  /// maxAmbiguousSessions after filtering: the constraints a new primary
  /// must be a subquorum of.
  std::vector<Session> constraints;
};

/// Flat, id-indexed table of the round-1 states received in the current
/// exchange.  Replaces a std::map keyed by ProcessId: slot access is O(1)
/// and allocation-free (the per-insert map node was the dominant
/// steady-state allocation of the round loop), and iteration is in
/// ascending process id -- the deterministic traversal order the
/// combined-knowledge folds require.
class StateExchangeTable {
 public:
  using Ptr = PayloadRef<const StateExchangePayload>;

  /// Pair-shaped view of one occupied slot, so range-for call sites read
  /// like the map this replaced.
  struct Entry {
    ProcessId first;
    const Ptr& second;
  };

  class const_iterator {
   public:
    const_iterator(const StateExchangeTable* table, std::size_t index)
        : table_(table), index_(index) {
      skip_empty();
    }
    Entry operator*() const {
      return Entry{static_cast<ProcessId>(index_), table_->slots_[index_]};
    }
    const_iterator& operator++() {
      ++index_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return index_ == other.index_;
    }

   private:
    void skip_empty() {
      while (index_ < table_->slots_.size() && !table_->slots_[index_]) {
        ++index_;
      }
    }
    const StateExchangeTable* table_;
    std::size_t index_;
  };

  /// Size the table for a universe of `universe` processes, dropping
  /// everything held.
  void reset_universe(std::size_t universe) {
    slots_.assign(universe, nullptr);
    count_ = 0;
  }

  /// Record `state` as received from `q` (q must be inside the universe).
  void set(ProcessId q, Ptr state) {
    if (!slots_[q]) ++count_;
    slots_[q] = std::move(state);
  }

  /// The state received from `q`, or nullptr if none (or q out of range).
  const StateExchangePayload* get(ProcessId q) const {
    return q < slots_.size() ? slots_[q].get() : nullptr;
  }

  /// Number of distinct processes whose state has been received.
  std::size_t size() const { return count_; }

  /// Drop every held state, keeping the slot storage.  Stops at the last
  /// held slot, so clearing the empty table a view change usually finds
  /// costs one compare.
  void clear() {
    for (std::size_t q = 0; count_ > 0 && q < slots_.size(); ++q) {
      if (slots_[q]) {
        slots_[q] = nullptr;
        --count_;
      }
    }
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

 private:
  std::vector<Ptr> slots_;
  std::size_t count_ = 0;
};

class YkdFamilyBase : public PrimaryComponentAlgorithm {
 public:
  void view_changed(const View& view) override;
  /// Both entry points run receive() on each protocol payload; variants
  /// hook into it through handle_extra_payload, never around it.
  Message incoming_message(Message message, ProcessId sender) final;
  void incoming_messages(std::span<const Delivery> batch) final;
  std::optional<Message> outgoing_message_poll(const Message& app) override;
  bool in_primary() const override { return in_primary_; }
  AlgorithmDebugInfo debug_info() const override;
  const Session& last_primary_session() const override { return last_primary_; }

 protected:
  /// Ordered by process id: the combined-knowledge folds iterate this
  /// table, so its traversal order must be deterministic across platforms
  /// (dvlint's determinism check bans unordered iteration in
  /// result-affecting paths).
  using StateMap = StateExchangeTable;

  /// How a variant sheds stored ambiguous sessions between formations.
  enum class PruneMode {
    /// Full LEARN/DELETE optimization: drop sessions superseded by the
    /// adopted primary and sessions provably never formed (YKD, 1-pending).
    kFull,
    /// Drop sessions superseded by the exchange's *global* maxPrimary --
    /// the garbage collection a view-ordering protocol performs once any
    /// newer primary is evidenced (DFLS).  Because DFLS decides on the
    /// unfiltered pool, a stale session still constrains the one decision
    /// made in the exchange that evidences its obsolescence, which is the
    /// cost of DFLS's delayed deletion.
    kGlobalSuperseded,
    /// Drop only sessions proven never-formed by the LEARN evidence;
    /// superseded sessions are kept until a formation succeeds
    /// (unoptimized YKD).  Shedding learned-dead sessions is required for
    /// the thesis's exact availability equivalence with YKD: a dead
    /// session shipped to a later view where its members are gone could
    /// otherwise pass the decision filter and block a formation YKD would
    /// make.  Superseded sessions can never do that -- the superseding
    /// process's own lastPrimary keeps the pool filter ahead of them.
    kUnformedOnly,
  };

  /// `filter_constraints`: apply the COMPUTE filter (drop pool sessions at
  /// or below maxPrimary, and sessions provably never formed) when
  /// deciding.  YKD and unoptimized YKD filter -- which is why their
  /// availability is identical by construction -- while DFLS does not: its
  /// retained ambiguous sessions genuinely "act as constraints that limit
  /// future primary component choices" (thesis §3.2.2), the source of its
  /// availability deficit versus YKD.
  YkdFamilyBase(ProcessId self, const View& initial_view, PruneMode prune_mode,
                bool filter_constraints = true);

  /// May the view start a new attempt given the combined knowledge?
  /// 1-pending overrides this to refuse while any member has an unresolved
  /// pending session.  Must be a deterministic function of the arguments
  /// and the current view, never of `self`: it is part of the view's
  /// shared verdict, evaluated by whichever member completes first.
  virtual bool allow_attempt(const CombinedKnowledge& knowledge,
                             const StateMap& states) const;

  /// Called when a primary component has just been formed (lastPrimary and
  /// lastFormed already updated).  The default deletes all ambiguous
  /// sessions immediately; DFLS instead starts its extra round.
  virtual void on_primary_formed();

  /// Hook for payload types the base does not know (DFLS's GC round).
  virtual void handle_extra_payload(const ProtocolPayload& payload,
                                    ProcessId sender);

  /// Queue a protocol payload for the next poll, stamping it with the
  /// current view id.
  void stage(PayloadRef<ProtocolPayload> payload);

  const View& current_view() const { return current_view_; }
  /// current_view().members.count(), cached at every view change so the
  /// per-delivery "has everyone answered?" tests are a compare.
  std::size_t view_size() const { return view_size_; }

  /// Is there combined-state proof that S was never formed by any member?
  bool provably_unformed(const Session& s, const StateMap& states) const;

  // --- persistent algorithm state (thesis §3.1; lastFormed is in
  // state_pool_ below) ---
  Session last_primary_;              // last primary formed or adopted
  std::vector<Session> ambiguous_;    // pending ambiguous sessions
  SessionNumber session_number_ = 0;
  bool in_primary_ = true;            // everyone starts together: primary
  bool blocked_ = false;              // set when allow_attempt refused

  // --- per-view protocol state ---
  View current_view_;

 private:
  enum class Stage { kIdle, kExchanging, kAttempting };

  /// The protocol's reaction to one received payload from `sender`.
  void receive(const PayloadPtr& payload, ProcessId sender);
  void on_exchange_complete();
  /// The completed exchange's verdict: the memo on the lowest member's
  /// payload when it holds this view and variant, else evaluated here and
  /// stored there.
  ExchangeVerdict shared_verdict() const;
  /// COMPUTE, DECIDE and allow_attempt over states_: a pure function of
  /// (current view, states_, variant).  Reads no per-process state.
  ExchangeVerdict evaluate_exchange() const;
  /// lastPrimary = s, and lastFormed(q) = s for every member q of s.
  void record_primary(const Session& s);
  /// state_pool_ for writing: first replaced by a new payload holding a
  /// copy of its lastFormed table if anyone else still holds it.
  StateExchangePayload& sole_state();
  void form_primary();
  /// Fills combined_scratch_ from states_ and returns a reference to it, so
  /// the constraint vector's capacity is reused across exchanges.
  const CombinedKnowledge& compute_combined() const;

  PruneMode prune_mode_;
  bool filter_constraints_;
  Stage stage_ = Stage::kIdle;
  StateMap states_;
  /// Round 2's attempts for proposed_; all of the view must send one.
  Tally attempts_;
  Session proposed_;
  std::size_t view_size_ = 0;
  /// Staged payloads are appended and consumed front-to-back via
  /// outbox_head_; a vector + cursor (instead of a deque) keeps its storage
  /// flat and its capacity alive across view changes, so steady-state
  /// staging never allocates.  The consumed prefix [0, outbox_head_) is
  /// dead.
  std::vector<PayloadPtr> outbox_;
  std::size_t outbox_head_ = 0;
  /// Our own round-1 payload, and the owner of lastFormed: its
  /// last_formed table is this process's lastFormed(q), indexed by q, at
  /// all times.  Its other fields are refreshed each time view_changed()
  /// stages it.  Once every other holder (recipients' exchange tables, the
  /// network) has dropped it, which use_count()==1 proves in this
  /// single-threaded simulation, it is rebuilt and written in place;
  /// before that, sole_state() copies the table into a new payload.  So
  /// the universe-sized table is copied only while another holder still
  /// has the payload, and a staged payload never changes under a reader.
  PayloadRef<StateExchangePayload> state_pool_;
  /// Single-slot reuse of the round-2 attempt payload, rebuilt in place
  /// once this process is its only holder.
  PayloadRef<AttemptPayload> attempt_pool_;
  mutable CombinedKnowledge combined_scratch_;
};

}  // namespace dynvote
