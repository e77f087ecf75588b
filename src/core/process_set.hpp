// A set of processes, stored as a bitmap.
//
// The thesis notes an ambiguous session costs "roughly 2n bits" for an
// n-process system: a membership bitmap plus a number.  ProcessSet is that
// bitmap -- a fixed-universe bitset with the set algebra the quorum rules
// need (intersection counting, subset tests, lowest member for the lexical
// tie-break).
//
// One representation: two 64-bit words, so a universe holds at most
// kMaxUniverse = 128 processes, and the constructor refuses a larger one.
// The study tops out at 64 (thesis §4.1 runs 32, 48 and 64).  Fixed words
// make a set 24 bytes and trivially copyable, so the sessions, views and
// lastFormed tables that every protocol round copies are plain memory
// copies and never touch the allocator.  Invariant: every bit at or past
// the universe size is zero, so equality is a compare of the used words.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"

namespace dynvote {

class Encoder;
class Decoder;

class ProcessSet {
 public:
  /// The largest universe a set can be drawn over.
  static constexpr std::size_t kMaxUniverse = 128;

  /// Empty set over a universe of `universe_size` processes (ids
  /// 0..universe_size-1); throws PreconditionViolation past kMaxUniverse.
  /// A default-constructed set has universe 0 and is only useful as a
  /// placeholder before assignment.
  ProcessSet() = default;
  explicit ProcessSet(std::size_t universe_size);
  ProcessSet(std::size_t universe_size, std::initializer_list<ProcessId> ids);

  /// The full set {0, ..., universe_size-1}.
  static ProcessSet full(std::size_t universe_size);

  std::size_t universe_size() const { return universe_size_; }

  /// Number of members.
  std::size_t count() const;
  bool empty() const {
    for (std::size_t w = 0; w < word_count(); ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }

  /// Every bit past the universe is zero, so testing an id against the
  /// fixed capacity instead of the universe gives the same answer.
  bool contains(ProcessId id) const {
    if (id >= kMaxUniverse) return false;
    return (words_[id / 64] >> (id % 64)) & 1;
  }

  void insert(ProcessId id) {
    check_id(id);
    words_[id / 64] |= (1ULL << (id % 64));
  }

  void erase(ProcessId id) {
    check_id(id);
    words_[id / 64] &= ~(1ULL << (id % 64));
  }

  void clear() { words_.fill(0); }

  /// Lowest-numbered member ("lexically smallest" in the thesis);
  /// kInvalidProcess if empty.
  ProcessId lowest() const;

  /// The member of ascending rank `rank` (0 is lowest()); requires
  /// rank < count().  Draws a uniform member without listing them.
  ProcessId nth_member(std::size_t rank) const;

  /// Number of members shared with `other` (same universe required).
  std::size_t intersection_count(const ProcessSet& other) const;

  bool is_subset_of(const ProcessSet& other) const;
  bool intersects(const ProcessSet& other) const;

  /// Adds every member of `other` (same universe required), in place.
  void insert_all(const ProcessSet& other);

  ProcessSet united_with(const ProcessSet& other) const;
  ProcessSet intersected_with(const ProcessSet& other) const;
  /// Members of *this that are not in `other`.
  ProcessSet minus(const ProcessSet& other) const;

  /// Members in ascending id order.
  std::vector<ProcessId> members() const;

  /// Invoke `fn(ProcessId)` for every member in ascending order.  `fn` may
  /// erase the member it is visiting: each word is read before its
  /// members are visited.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < word_count(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(static_cast<ProcessId>(w * 64 + static_cast<std::size_t>(bit)));
        word &= word - 1;
      }
    }
  }

  /// Structural equality.  The representation invariant (see the header
  /// comment) makes "same universe, same words" exactly the member-wise
  /// comparison.  Inline: the round loop compares sessions and attempt
  /// proposals on every delivery.
  bool operator==(const ProcessSet& other) const {
    if (universe_size_ != other.universe_size_) return false;
    for (std::size_t w = 0; w < word_count(); ++w) {
      if (words_[w] != other.words_[w]) return false;
    }
    return true;
  }

  /// Three-way comparison giving an arbitrary but fixed total order over
  /// sets of the same universe (used to break session-number ties the same
  /// way at every process).  Returns <0, 0, >0.  Defined inline: this is
  /// the hottest call in the session tie-break fold (hundreds of millions
  /// of calls per sweep).
  int compare(const ProcessSet& other) const {
    check_same_universe(other);
    for (std::size_t w = 0; w < word_count(); ++w) {
      if (words_[w] != other.words_[w]) {
        return words_[w] < other.words_[w] ? -1 : 1;
      }
    }
    return 0;
  }

  /// Render as "{0,1,5}" for logs and test failures.
  std::string to_string() const;

  /// Wire format: varint universe size + the used words.  A decoded set
  /// must be drawn over `universe`, the world it is decoded into; any
  /// other universe is a DecodeError, so no id in it can index past that
  /// world.
  void encode(Encoder& enc) const;
  static ProcessSet decode(Decoder& dec, std::size_t universe);

 private:
  static constexpr std::size_t kWords = kMaxUniverse / 64;

  static constexpr std::size_t words_for(std::size_t universe_size) {
    return (universe_size + 63) / 64;
  }

  std::size_t word_count() const { return words_for(universe_size_); }

  void check_id(ProcessId id) const {
    DV_REQUIRE(id < universe_size_, "process id outside the set's universe");
  }
  void check_same_universe(const ProcessSet& other) const {
    DV_REQUIRE(universe_size_ == other.universe_size_,
               "set operation across different universes");
  }

  std::size_t universe_size_ = 0;
  std::array<std::uint64_t, kWords> words_{};
};

static_assert(std::is_trivially_copyable_v<ProcessSet>);
static_assert(sizeof(ProcessSet) == 24);

}  // namespace dynvote
