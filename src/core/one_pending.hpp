// 1-pending: YKD restricted to a single pending ambiguous session
// (thesis §3.2.3; similar to Jajodia-Mutchler dynamic voting and Amir's
// replication algorithm).
//
// The algorithm does not attempt a new primary while any member of the view
// still holds an unresolved ambiguous session: it blocks until the session
// can be resolved by learning its outcome from other processes.  In the
// worst case that requires hearing from *all* the session's members -- the
// permanent absence of one member can block it forever, which is why its
// availability collapses under many cascading connectivity changes
// (Figures 4-4..4-6), dropping below even the simple majority rule.
#pragma once

#include "core/ykd_family.hpp"

namespace dynvote {

class OnePending final : public YkdFamilyBase {
 public:
  OnePending(ProcessId self, const View& initial_view);

  std::string_view name() const override { return "1-pending"; }

 protected:
  bool allow_attempt(const CombinedKnowledge& knowledge,
                     const StateMap& states) const override;
};

}  // namespace dynvote
