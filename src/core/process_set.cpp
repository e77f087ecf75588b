#include "core/process_set.hpp"

#include <bit>

#include "util/codec.hpp"

namespace dynvote {

ProcessSet::ProcessSet(std::size_t universe_size)
    : universe_size_(universe_size) {
  DV_REQUIRE(universe_size <= kMaxUniverse,
             "a process set holds at most " + std::to_string(kMaxUniverse) +
                 " processes; " + std::to_string(universe_size) +
                 " were requested");
}

ProcessSet::ProcessSet(std::size_t universe_size,
                       std::initializer_list<ProcessId> ids)
    : ProcessSet(universe_size) {
  for (ProcessId id : ids) insert(id);
}

ProcessSet ProcessSet::full(std::size_t universe_size) {
  ProcessSet s(universe_size);
  for (std::size_t w = 0; w < s.word_count(); ++w) s.words_[w] = ~0ULL;
  const std::size_t tail = universe_size % 64;
  if (tail != 0) s.words_[s.word_count() - 1] = (1ULL << tail) - 1;
  return s;
}

std::size_t ProcessSet::count() const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w]));
  }
  return n;
}

ProcessId ProcessSet::lowest() const {
  for (std::size_t w = 0; w < word_count(); ++w) {
    if (words_[w] != 0) {
      return static_cast<ProcessId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w])));
    }
  }
  return kInvalidProcess;
}

ProcessId ProcessSet::nth_member(std::size_t rank) const {
  for (std::size_t w = 0; w < word_count(); ++w) {
    std::uint64_t word = words_[w];
    const auto in_word = static_cast<std::size_t>(std::popcount(word));
    if (rank >= in_word) {
      rank -= in_word;
      continue;
    }
    for (; rank > 0; --rank) word &= word - 1;
    return static_cast<ProcessId>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
  }
  DV_REQUIRE(false, "member rank past the set's count");
  return kInvalidProcess;
}

std::size_t ProcessSet::intersection_count(const ProcessSet& other) const {
  check_same_universe(other);
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
  }
  return n;
}

bool ProcessSet::is_subset_of(const ProcessSet& other) const {
  check_same_universe(other);
  for (std::size_t w = 0; w < word_count(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

bool ProcessSet::intersects(const ProcessSet& other) const {
  check_same_universe(other);
  for (std::size_t w = 0; w < word_count(); ++w) {
    if ((words_[w] & other.words_[w]) != 0) return true;
  }
  return false;
}

void ProcessSet::insert_all(const ProcessSet& other) {
  check_same_universe(other);
  for (std::size_t w = 0; w < word_count(); ++w) words_[w] |= other.words_[w];
}

ProcessSet ProcessSet::united_with(const ProcessSet& other) const {
  ProcessSet out = *this;
  out.insert_all(other);
  return out;
}

ProcessSet ProcessSet::intersected_with(const ProcessSet& other) const {
  check_same_universe(other);
  ProcessSet out = *this;
  for (std::size_t w = 0; w < word_count(); ++w) {
    out.words_[w] &= other.words_[w];
  }
  return out;
}

ProcessSet ProcessSet::minus(const ProcessSet& other) const {
  check_same_universe(other);
  ProcessSet out = *this;
  for (std::size_t w = 0; w < word_count(); ++w) {
    out.words_[w] &= ~other.words_[w];
  }
  return out;
}

std::vector<ProcessId> ProcessSet::members() const {
  std::vector<ProcessId> out;
  out.reserve(count());
  for_each([&](ProcessId id) { out.push_back(id); });
  return out;
}

std::string ProcessSet::to_string() const {
  std::string out = "{";
  bool first = true;
  for_each([&](ProcessId id) {
    if (!first) out += ',';
    out += std::to_string(id);
    first = false;
  });
  out += '}';
  return out;
}

void ProcessSet::encode(Encoder& enc) const {
  enc.put_varint(universe_size_);
  for (std::size_t w = 0; w < word_count(); ++w) enc.put_u64_fixed(words_[w]);
}

ProcessSet ProcessSet::decode(Decoder& dec, std::size_t universe) {
  if (dec.get_varint() != universe) {
    throw DecodeError("process set drawn over another universe");
  }
  ProcessSet s(universe);
  for (std::size_t w = 0; w < s.word_count(); ++w) {
    s.words_[w] = dec.get_u64_fixed();
  }
  const std::size_t tail = universe % 64;
  if (tail != 0 && (s.words_[s.word_count() - 1] >> tail) != 0) {
    throw DecodeError("bits set outside the universe");
  }
  return s;
}

}  // namespace dynvote
