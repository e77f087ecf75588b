#include "core/process_set.hpp"

#include <bit>

#include "util/codec.hpp"

namespace dynvote {

ProcessSet::ProcessSet(std::size_t universe_size)
    : universe_size_(universe_size) {
  if (words_for(universe_size) > kInlineWords) {
    spill_.assign(words_for(universe_size), 0);
  }
}

ProcessSet::ProcessSet(std::size_t universe_size,
                       std::initializer_list<ProcessId> ids)
    : ProcessSet(universe_size) {
  for (ProcessId id : ids) insert(id);
}

ProcessSet ProcessSet::full(std::size_t universe_size) {
  ProcessSet s(universe_size);
  std::uint64_t* words = s.word_data();
  for (std::size_t w = 0; w < s.word_count(); ++w) words[w] = ~0ULL;
  const std::size_t tail = universe_size % 64;
  if (tail != 0 && s.word_count() > 0) {
    words[s.word_count() - 1] = (1ULL << tail) - 1;
  }
  return s;
}

std::size_t ProcessSet::count() const {
  const std::uint64_t* words = word_data();
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(words[w]));
  }
  return n;
}

ProcessId ProcessSet::lowest() const {
  const std::uint64_t* words = word_data();
  for (std::size_t w = 0; w < word_count(); ++w) {
    if (words[w] != 0) {
      return static_cast<ProcessId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(words[w])));
    }
  }
  return kInvalidProcess;
}

std::size_t ProcessSet::intersection_count(const ProcessSet& other) const {
  check_same_universe(other);
  const std::uint64_t* a = word_data();
  const std::uint64_t* b = other.word_data();
  std::size_t n = 0;
  for (std::size_t w = 0; w < word_count(); ++w) {
    n += static_cast<std::size_t>(std::popcount(a[w] & b[w]));
  }
  return n;
}

bool ProcessSet::is_subset_of(const ProcessSet& other) const {
  check_same_universe(other);
  const std::uint64_t* a = word_data();
  const std::uint64_t* b = other.word_data();
  for (std::size_t w = 0; w < word_count(); ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

bool ProcessSet::intersects(const ProcessSet& other) const {
  check_same_universe(other);
  const std::uint64_t* a = word_data();
  const std::uint64_t* b = other.word_data();
  for (std::size_t w = 0; w < word_count(); ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

ProcessSet ProcessSet::united_with(const ProcessSet& other) const {
  check_same_universe(other);
  ProcessSet out = *this;
  std::uint64_t* words = out.word_data();
  const std::uint64_t* b = other.word_data();
  for (std::size_t w = 0; w < out.word_count(); ++w) words[w] |= b[w];
  return out;
}

ProcessSet ProcessSet::intersected_with(const ProcessSet& other) const {
  check_same_universe(other);
  ProcessSet out = *this;
  std::uint64_t* words = out.word_data();
  const std::uint64_t* b = other.word_data();
  for (std::size_t w = 0; w < out.word_count(); ++w) words[w] &= b[w];
  return out;
}

ProcessSet ProcessSet::minus(const ProcessSet& other) const {
  check_same_universe(other);
  ProcessSet out = *this;
  std::uint64_t* words = out.word_data();
  const std::uint64_t* b = other.word_data();
  for (std::size_t w = 0; w < out.word_count(); ++w) words[w] &= ~b[w];
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
  const std::uint64_t* words =
      spill_.empty() ? inline_words_.data() : spill_.data();
  for (std::size_t w = 0; w < word_count(); ++w) enc.put_u64_fixed(words[w]);
}

ProcessSet ProcessSet::decode(Decoder& dec, std::size_t universe) {
  if (dec.get_varint() != universe) {
    throw DecodeError("process set drawn over another universe");
  }
  ProcessSet s(universe);
  std::uint64_t* words =
      s.spill_.empty() ? s.inline_words_.data() : s.spill_.data();
  for (std::size_t w = 0; w < s.word_count(); ++w) {
    words[w] = dec.get_u64_fixed();
  }
  const std::size_t tail = s.universe_size_ % 64;
  if (tail != 0 && s.word_count() > 0 &&
      (words[s.word_count() - 1] >> tail) != 0) {
    throw DecodeError("bits set outside the universe");
  }
  return s;
}

std::size_t ProcessSet::hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ universe_size_;
  const std::uint64_t* words = word_data();
  for (std::size_t w = 0; w < word_count(); ++w) {
    h ^= words[w] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

}  // namespace dynvote
