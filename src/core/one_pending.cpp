#include "core/one_pending.hpp"

namespace dynvote {

OnePending::OnePending(ProcessId self, const View& initial_view)
    : YkdFamilyBase(self, initial_view, PruneMode::kFull) {}

bool OnePending::allow_attempt(const CombinedKnowledge& /*knowledge*/,
                               const StateMap& states) const {
  // The group may attempt only if no member is left with a pending session
  // after resolution.  The answer depends only on the identical combined
  // state, so it is the same everywhere and is evaluated once per view as
  // part of the shared verdict (the base marks every member blocked).
  //
  // A member m's session S counts as resolved when either
  //  * a formed session containing m with a higher number exists (m will
  //    adopt it and delete S -- the thesis's ACCEPT + DELETE), or
  //  * every member of S is present and none formed it.
  //
  // Members with no pending sessions (the overwhelmingly common case: the
  // kFull prune mode just ran) need no verdict at all, so the resolution
  // ceiling below is computed lazily, only for the members that actually
  // hold ambiguous sessions.  The ceiling is a max over a total order, so
  // evaluating it per member instead of table-building it for the whole
  // universe gives bit-identical answers.
  for (const auto& [m, state] : states) {
    if (state->ambiguous.empty()) continue;

    // Highest-numbered formed session containing m, per the combined
    // state: lastPrimary covers its members, lastFormed(m) covers m.
    Session best{0, initial_view_.members};
    for (const auto& [q, st] : states) {
      const Session& lp = st->last_primary;
      if (lp.members.contains(m) && session_precedes(best, lp)) best = lp;
      if (m < st->last_formed.size()) {
        const Session& lf = st->last_formed[m];
        if (lf.members.contains(m) && session_precedes(best, lf)) best = lf;
      }
    }

    for (const Session& s : state->ambiguous) {
      if (s.number <= best.number) continue;               // will be adopted past S
      if (provably_unformed(s, states)) continue;          // witnessed dead
      return false;  // m is still pending on S: the group blocks
    }
  }
  return true;
}

}  // namespace dynvote
