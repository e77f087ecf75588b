// Dynamic linear voting quorum rules (thesis §3, Figure 3-4).
//
// SUBQUORUM(X, Y): X is a subquorum of Y iff more than half of Y's members
// are in X, or exactly half are and the lexically smallest member of Y is
// among them.  The tie-break makes dynamic *linear* voting admit a group
// containing exactly half of the previous primary.
#pragma once

#include <cstddef>

#include "core/process_set.hpp"

namespace dynvote {

/// Strict majority: |X ∩ Y| > |Y| / 2.
bool is_majority_of(const ProcessSet& candidate, const ProcessSet& of);

/// Dynamic linear voting subquorum test, including the exact-half lexical
/// tie-break.  `of` must be non-empty.
bool is_subquorum(const ProcessSet& candidate, const ProcessSet& of);

/// The smallest strict majority of `n` members, the count is_majority_of
/// needs.
constexpr std::size_t majority(std::size_t n) { return n / 2 + 1; }

/// "Have enough members of this view sent X": the distinct senders of one
/// protocol round against the count the round needs (the quorum_add /
/// quorum_reached idiom).  Only members send traffic stamped with the
/// view's id, so a threshold of the view size is reached exactly when the
/// senders are the membership.  Every member of a view counts the same
/// senders, so one tally can serve the whole view (DESIGN.md §4d).
class Tally {
 public:
  Tally() = default;
  /// No senders yet among processes [0, universe); `threshold` needed.
  Tally(std::size_t universe, std::size_t threshold)
      : senders_(universe), threshold_(threshold) {}

  /// Forget every sender; from now on `threshold` of them are needed.
  void reset(std::size_t threshold) {
    senders_.clear();
    count_ = 0;
    threshold_ = threshold;
  }

  /// Count `sender`, once however often it sends.  True when `sender` is
  /// the one that reaches the threshold, which happens once per reset.
  bool add(ProcessId sender) {
    if (senders_.contains(sender)) return false;
    senders_.insert(sender);
    return ++count_ == threshold_;
  }

  bool reached() const { return count_ >= threshold_; }
  /// No sender counted since the last reset.
  bool empty() const { return count_ == 0; }

  bool operator==(const Tally&) const = default;

 private:
  ProcessSet senders_;
  std::size_t count_ = 0;
  std::size_t threshold_ = 0;
};

}  // namespace dynvote
