#include "sim/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "util/assert.hpp"

namespace dynvote {

InvariantChecker::InvariantChecker(const Gcs& gcs)
    : last_primary_numbers_(gcs.process_count(), 0),
      last_formed_primary_{0, ProcessSet(gcs.process_count())} {}

void InvariantChecker::check(const Gcs& gcs) {
  ++checks_;
  if (&gcs == verified_gcs_ && gcs.revision() == verified_revision_) return;
  std::size_t primary_components = 0;
  const Session* claimed = nullptr;
  newer_formed_.clear();

  for (const ProcessSet& component : gcs.topology().components()) {
    // A crashed process claims nothing: its (frozen, possibly stale) state
    // is exempt until it recovers.  Crashed processes are always isolated
    // into singleton components.
    if (component.is_subset_of(gcs.crashed())) continue;

    const ProcessId first = component.lowest();
    const bool claim = gcs.algorithm(first).in_primary();
    const Session& first_primary = gcs.algorithm(first).last_primary_session();

    component.for_each([&](ProcessId p) {
      const auto& alg = gcs.algorithm(p);
      if (alg.in_primary() != claim) {
        std::ostringstream os;
        os << "agreement violated in component " << component.to_string()
           << ": process " << first << " says " << claim << ", process " << p
           << " says " << alg.in_primary();
        throw InvariantViolation(os.str());
      }
      const Session& primary = alg.last_primary_session();
      if (claim && !(primary == first_primary)) {
        std::ostringstream os;
        os << "primary component " << component.to_string()
           << " disagrees on the formed session: process " << first << " has "
           << first_primary.to_string() << ", process " << p << " has "
           << primary.to_string();
        throw InvariantViolation(os.str());
      }
      if (primary.number < last_primary_numbers_[p]) {
        std::ostringstream os;
        os << "lastPrimary number went backwards at process " << p << ": "
           << last_primary_numbers_[p] << " -> " << primary.number;
        throw InvariantViolation(os.str());
      }
      last_primary_numbers_[p] = primary.number;
      // Check 5's input.  Most processes hold the chain's head or an older
      // session, so the common path compares session numbers only.
      if (primary.number > last_formed_primary_.number &&
          (newer_formed_.empty() || !(*newer_formed_.back() == primary))) {
        newer_formed_.push_back(&primary);
      }
    });

    if (claim) {
      ++primary_components;
      if (!(first_primary.members == component)) {
        std::ostringstream os;
        os << "primary session members " << first_primary.to_string()
           << " differ from component " << component.to_string();
        throw InvariantViolation(os.str());
      }
      claimed = &first_primary;
    }
  }

  // The primary chain (check 5), whichever fault model produced the
  // turbulence in between.  A formation interrupted by a view change
  // (thesis Fig. 3-1) leaves a session formed at some members and claimed
  // by none, and later primaries descend from it; so the chain advances
  // through every formed session a live process holds, in session order,
  // and only then through the claim, which must not be older.
  std::sort(newer_formed_.begin(), newer_formed_.end(),
            [](const Session* a, const Session* b) {
              return a->number < b->number;
            });
  for (const Session* formed : newer_formed_) advance_chain(*formed);
  if (claimed != nullptr) advance_chain(*claimed);

  if (primary_components > 1) {
    std::ostringstream os;
    os << primary_components << " live primary components exist concurrently";
    throw InvariantViolation(os.str());
  }
  verified_gcs_ = &gcs;
  verified_revision_ = gcs.revision();
}

void InvariantChecker::advance_chain(const Session& formed) {
  if (formed == last_formed_primary_) return;
  if (!last_formed_primary_.members.empty()) {
    if (formed.number < last_formed_primary_.number) {
      std::ostringstream os;
      os << "formed primary session number went backwards: "
         << last_formed_primary_.to_string() << " -> " << formed.to_string();
      throw InvariantViolation(os.str());
    }
    if (!formed.members.intersects(last_formed_primary_.members)) {
      std::ostringstream os;
      os << "temporally disjoint primaries: "
         << last_formed_primary_.to_string() << " and "
         << formed.to_string() << " share no member -- the quorum chain is "
         << "broken";
      throw InvariantViolation(os.str());
    }
  }
  last_formed_primary_ = formed;
}

}  // namespace dynvote
