// Sessions: numbered attempts to form a primary component.
//
// "A session is nothing more than a view with a number attached to it,
// corresponding to a session to form a primary component.  These numbers
// are used by YKD to determine the order in which views occurred"
// (thesis §3.1).
#pragma once

#include <string>

#include "core/process_set.hpp"
#include "core/types.hpp"

namespace dynvote {

class Encoder;
class Decoder;

struct Session {
  SessionNumber number = 0;
  ProcessSet members;

  bool operator==(const Session&) const = default;

  std::string to_string() const;

  void encode(Encoder& enc) const;
  /// Members must be drawn over `universe` (see ProcessSet::decode).
  static Session decode(Decoder& dec, std::size_t universe);
};

/// Deterministic total order on sessions: by number, then by membership.
/// Ties on the number alone are possible (two concurrent attempts in
/// disjoint components can pick the same number), and every process must
/// break them identically.  Inline: the RESOLVE/ACCEPT folds call this for
/// every (member, state) pair of every exchange.
inline bool session_precedes(const Session& a, const Session& b) {
  if (a.number != b.number) return a.number < b.number;
  return a.members.compare(b.members) < 0;
}

}  // namespace dynvote

template <>
struct std::hash<dynvote::Session> {
  std::size_t operator()(const dynvote::Session& s) const {
    return s.members.hash() * 1099511628211ULL ^ s.number;
  }
};
