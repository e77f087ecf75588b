// The safety properties every run is checked against (thesis §2.2):
// "Every process in a view agreed on whether or not that view was a
// primary, and at all times there was at most one primary component
// declared."  Each of the thesis's algorithms survived >1.31M connectivity
// changes under these checks; ours run after every round and every change.
//
// Beyond the thesis's per-instant checks, the checker tracks the chain of
// formed sessions across time, interrupted formations included: every
// newly formed session must intersect the previously formed one (the
// quorum it resolved through) and must not carry an older number.  Two
// temporally disjoint primaries -- each legitimate at its own instant --
// would let the replicated state fork, which no per-instant check can see.  This chain property is what the
// fault-model property harness certifies for every (algorithm x model)
// pair: it holds under geometric partitions, sleepy leaves/joins, repair
// queues, and replayed traces alike, because every algorithm forms a new
// primary only through a majority of the last one (or of the universe).
#pragma once

#include <vector>

#include "core/session.hpp"
#include "core/types.hpp"
#include "gcs/gcs.hpp"

namespace dynvote {

class InvariantChecker {
 public:
  explicit InvariantChecker(const Gcs& gcs);

  /// Throws InvariantViolation on any breach:
  ///  1. all members of a component agree on in_primary;
  ///  2. at most one component system-wide is a primary;
  ///  3. members of a primary component agree on the formed session, and
  ///     that session's members are exactly the component;
  ///  4. each process's lastPrimary number never decreases;
  ///  5. model-agnostic primary chain: each newly formed session a live
  ///     process holds, taken in session order and whether or not its
  ///     formation completed anywhere else, intersects the previously
  ///     formed one (live quorum chain through formedViews), and no claimed
  ///     primary is older than the newest -- so no two temporally disjoint
  ///     primaries can ever both form.
  /// Every call counts, but a world that has not moved since it last passed
  /// -- the same Gcs at the same revision() -- passes again without being
  /// walked: the verdict and the history are functions of the world, and
  /// a passing check leaves the history at a fixpoint for it (DESIGN.md
  /// §4, "Invariants checked every step").
  void check(const Gcs& gcs);

  std::uint64_t checks_performed() const { return checks_; }

 private:
  /// Check 5's step: `formed` must not be older than the chain's head and
  /// must intersect it; it becomes the head.
  void advance_chain(const Session& formed);

  std::vector<SessionNumber> last_primary_numbers_;
  /// The most recently formed primary's session; empty members = none
  /// observed yet.
  Session last_formed_primary_;
  std::uint64_t checks_ = 0;
  /// The world the last passing check walked.  A checker's history belongs
  /// to the one world it follows, so a match names that world unchanged.
  const Gcs* verified_gcs_ = nullptr;
  std::uint64_t verified_revision_ = 0;
  /// Sessions newer than the chain's head that live processes hold, found
  /// by one check's walk.
  std::vector<const Session*> newer_formed_;
};

}  // namespace dynvote
