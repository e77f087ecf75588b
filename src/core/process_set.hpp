// A set of processes, stored as a bitmap.
//
// The thesis notes an ambiguous session costs "roughly 2n bits" for an
// n-process system: a membership bitmap plus a number.  ProcessSet is that
// bitmap -- a fixed-universe dynamic bitset with the set algebra the quorum
// rules need (intersection counting, subset tests, lowest member for the
// lexical tie-break).
//
// Storage is small-buffer optimized: universes of up to 128 processes (two
// 64-bit words -- the study itself tops out at 64) live entirely inline, so
// constructing, copying and combining the sets that flow through every
// protocol round never touches the allocator.  Larger universes spill to a
// heap vector.  Invariant: exactly one representation is active -- when the
// set is inline the spill vector is empty and any unused inline words are
// zero; when spilled the inline words are all zero -- so equality is a
// compare of the active words and the wire format, `compare` and `hash`
// are byte-identical to the old always-heap layout.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/assert.hpp"
#include "util/spill_arena.hpp"

namespace dynvote {

class Encoder;
class Decoder;

class ProcessSet {
 public:
  /// Empty set over a universe of `universe_size` processes (ids
  /// 0..universe_size-1).  A default-constructed set has universe 0 and is
  /// only useful as a placeholder before assignment.
  ProcessSet() = default;
  explicit ProcessSet(std::size_t universe_size);
  ProcessSet(std::size_t universe_size, std::initializer_list<ProcessId> ids);

  /// Copies touch the spill vector only when a side is spilled, so the
  /// inline sets the round loop copies (sessions, views) are word copies.
  ProcessSet(const ProcessSet& other)
      : universe_size_(other.universe_size_),
        inline_words_(other.inline_words_) {
    if (other.spilled()) spill_ = other.spill_;
  }
  ProcessSet& operator=(const ProcessSet& other) {
    universe_size_ = other.universe_size_;
    inline_words_ = other.inline_words_;
    if (other.spilled() || !spill_.empty()) spill_ = other.spill_;
    return *this;
  }
  /// Moves leave the source in the default (universe-0) state, preserving
  /// the representation invariant equality relies on.
  ProcessSet(ProcessSet&& other) noexcept
      : universe_size_(other.universe_size_),
        inline_words_(other.inline_words_),
        spill_(std::move(other.spill_)) {
    other.universe_size_ = 0;
    other.inline_words_.fill(0);
    other.spill_.clear();
  }
  ProcessSet& operator=(ProcessSet&& other) noexcept {
    if (this != &other) {
      universe_size_ = other.universe_size_;
      inline_words_ = other.inline_words_;
      spill_ = std::move(other.spill_);
      other.universe_size_ = 0;
      other.inline_words_.fill(0);
      other.spill_.clear();
    }
    return *this;
  }
  ~ProcessSet() = default;

  /// The full set {0, ..., universe_size-1}.
  static ProcessSet full(std::size_t universe_size);

  std::size_t universe_size() const { return universe_size_; }

  /// Number of members.
  std::size_t count() const;
  bool empty() const { return count() == 0; }

  bool contains(ProcessId id) const {
    if (id >= universe_size_) return false;
    return (word_data()[id / 64] >> (id % 64)) & 1;
  }

  void insert(ProcessId id) {
    check_id(id);
    word_data()[id / 64] |= (1ULL << (id % 64));
  }

  void erase(ProcessId id) {
    check_id(id);
    word_data()[id / 64] &= ~(1ULL << (id % 64));
  }

  void clear() {
    std::uint64_t* words = word_data();
    for (std::size_t w = 0; w < word_count(); ++w) words[w] = 0;
  }

  /// Lowest-numbered member ("lexically smallest" in the thesis);
  /// kInvalidProcess if empty.
  ProcessId lowest() const;

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
    const std::uint64_t* words = word_data();
    for (std::size_t w = 0; w < word_count(); ++w) {
      std::uint64_t word = words[w];
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
    const std::uint64_t* a = word_data();
    const std::uint64_t* b = other.word_data();
    for (std::size_t w = 0; w < word_count(); ++w) {
      if (a[w] != b[w]) return false;
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
    const std::uint64_t* a = word_data();
    const std::uint64_t* b = other.word_data();
    for (std::size_t w = 0; w < word_count(); ++w) {
      if (a[w] != b[w]) {
        return a[w] < b[w] ? -1 : 1;
      }
    }
    return 0;
  }

  /// Render as "{0,1,5}" for logs and test failures.
  std::string to_string() const;

  /// Wire format: varint universe size + raw words.  A decoded set must be
  /// drawn over `universe`, the world it is decoded into; any other
  /// universe is a DecodeError, so no id in it can index past that world.
  void encode(Encoder& enc) const;
  static ProcessSet decode(Decoder& dec, std::size_t universe);

  /// Stable hash usable as a key component.
  std::size_t hash() const;

 private:
  /// Universes of up to kInlineWords * 64 ids are stored without heap
  /// allocation.
  static constexpr std::size_t kInlineWords = 2;

  static constexpr std::size_t words_for(std::size_t universe_size) {
    return (universe_size + 63) / 64;
  }

  std::size_t word_count() const { return words_for(universe_size_); }

  /// The universe alone decides the representation (see the header
  /// comment), and testing it spares the hot accessors a load of the
  /// spill vector's bounds.
  bool spilled() const { return word_count() > kInlineWords; }

  const std::uint64_t* word_data() const {
    return spilled() ? spill_.data() : inline_words_.data();
  }
  std::uint64_t* word_data() {
    return spilled() ? spill_.data() : inline_words_.data();
  }

  void check_id(ProcessId id) const {
    DV_REQUIRE(id < universe_size_, "process id outside the set's universe");
  }
  void check_same_universe(const ProcessSet& other) const {
    DV_REQUIRE(universe_size_ == other.universe_size_,
               "set operation across different universes");
  }

  std::size_t universe_size_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_words_{};
  /// Spill storage comes from the thread-local freelist arena, so building
  /// and dropping sets at N > 128 stays allocation-free once the arena's
  /// freelists are warm (the zero-alloc guarantee past the SBO limit).
  std::vector<std::uint64_t, SpillArenaAllocator<std::uint64_t>> spill_;
};

}  // namespace dynvote

template <>
struct std::hash<dynvote::ProcessSet> {
  std::size_t operator()(const dynvote::ProcessSet& s) const {
    return s.hash();
  }
};
