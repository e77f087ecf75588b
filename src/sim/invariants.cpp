#include "sim/invariants.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {

InvariantChecker::InvariantChecker(const Gcs& gcs)
    : last_primary_numbers_(gcs.process_count(), 0),
      last_formed_primary_{0, ProcessSet(gcs.process_count())} {}

void InvariantChecker::save(Encoder& enc) const {
  enc.put_varint(checks_);
  enc.put_varint(last_primary_numbers_.size());
  for (SessionNumber n : last_primary_numbers_) enc.put_varint(n);
  last_formed_primary_.encode(enc);
}

void InvariantChecker::load(Decoder& dec) {
  checks_ = dec.get_varint();
  const std::uint64_t n = dec.get_varint();
  if (n != last_primary_numbers_.size()) {
    throw DecodeError("snapshot invariant history does not match this checker");
  }
  for (SessionNumber& v : last_primary_numbers_) {
    v = static_cast<SessionNumber>(dec.get_varint());
  }
  last_formed_primary_ = Session::decode(dec, last_primary_numbers_.size());
  verified_gcs_ = nullptr;  // the history changed under the memo
}

void InvariantChecker::check(const Gcs& gcs) {
  ++checks_;
  if (&gcs == verified_gcs_ && gcs.revision() == verified_revision_) return;
  std::size_t primary_components = 0;

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
    });

    if (claim) {
      ++primary_components;
      if (!(first_primary.members == component)) {
        std::ostringstream os;
        os << "primary session members " << first_primary.to_string()
           << " differ from component " << component.to_string();
        throw InvariantViolation(os.str());
      }
      // The primary chain (check 5): a NEW formed primary must descend
      // from the previous one through an intersecting quorum, whichever
      // fault model produced the turbulence in between.
      if (!(first_primary == last_formed_primary_)) {
        if (!last_formed_primary_.members.empty()) {
          if (first_primary.number < last_formed_primary_.number) {
            std::ostringstream os;
            os << "formed primary session number went backwards: "
               << last_formed_primary_.to_string() << " -> "
               << first_primary.to_string();
            throw InvariantViolation(os.str());
          }
          if (!first_primary.members.intersects(last_formed_primary_.members)) {
            std::ostringstream os;
            os << "temporally disjoint primaries: "
               << last_formed_primary_.to_string()
               << " and " << first_primary.to_string()
               << " share no member -- the quorum chain is broken";
            throw InvariantViolation(os.str());
          }
        }
        last_formed_primary_ = first_primary;
      }
    }
  }

  if (primary_components > 1) {
    std::ostringstream os;
    os << primary_components << " live primary components exist concurrently";
    throw InvariantViolation(os.str());
  }
  verified_gcs_ = &gcs;
  verified_revision_ = gcs.revision();
}

}  // namespace dynvote
