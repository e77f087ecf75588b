// Deterministic pseudo-random number generation.
//
// The paper stresses that "the same random sequence was used to test each of
// the algorithms": the fault schedule must be a pure function of the seed so
// that every algorithm sees the identical topology trajectory.  We use
// xoshiro256** (public domain, Blackman & Vigna) seeded via SplitMix64 --
// fast, reproducible across platforms, and independent of libstdc++'s
// distribution implementations (std::uniform_* are not portable bit-for-bit).
//
// Every stream is named by type: Rng(base, StreamTag::k*) seeds a generator
// with child_seed(base, tag), and the only other way to build one is the
// Rng::from_raw_seed factory, for the pinned seeds listed at it.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/assert.hpp"

namespace dynvote {

/// SplitMix64 step; used to expand a 64-bit seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stable seed mixing for experiment cases: hash together a base seed and
/// case coordinates (process count, change count, rate index, run index) so
/// that the schedule depends on the case but never on the algorithm.
constexpr std::uint64_t mix_seed(std::uint64_t base,
                                 std::uint64_t a,
                                 std::uint64_t b = 0,
                                 std::uint64_t c = 0,
                                 std::uint64_t d = 0) {
  // Fold each coordinate through a full SplitMix64 avalanche so nearby
  // coordinate tuples land in unrelated streams.
  std::uint64_t s = base;
  s = splitmix64(s) ^ (a + 0x9e3779b97f4a7c15ULL);
  s = splitmix64(s) ^ (b + 0xd1b54a32d192ed03ULL);
  s = splitmix64(s) ^ (c + 0x8cb92ba72f3d8dd7ULL);
  s = splitmix64(s) ^ (d + 0xda942042e4dd58b5ULL);
  return splitmix64(s);
}

/// Named per-subsystem RNG streams.  A stream is `Rng(base, tag)`, so
/// adding a consumer of randomness can never perturb an existing stream:
/// each tag is an independent SplitMix64 avalanche away from every other.
/// A tag is a type, not an integer, so neither child_seed nor Rng accepts
/// a loop counter or a literal where a tag belongs.
enum class StreamTag : std::uint64_t {
  kDelivery = 0xDE11u,
  kSleepy = 0x51EE9u,
  kRepair = 0x4E9A12u,
  // The full-run microbenches seed one simulation per iteration; the two
  // tags keep their schedule families disjoint from each other and from
  // every simulation stream.
  kBenchFullRun = 0xBE7CF1u,
  kBenchFullRunUnchecked = 0xBE7CF2u,
};

/// The registry, listed once.  Two tags with one value are duplicate case
/// labels, and a tag missing here trips -Werror=switch, so either fails
/// to compile.
constexpr std::string_view to_string(StreamTag tag) {
  switch (tag) {
    case StreamTag::kDelivery: return "delivery";
    case StreamTag::kSleepy: return "sleepy";
    case StreamTag::kRepair: return "repair";
    case StreamTag::kBenchFullRun: return "bench-full-run";
    case StreamTag::kBenchFullRunUnchecked: return "bench-full-run-unchecked";
  }
  return "unknown";
}

/// Derive the independent child seed for a tagged stream.
constexpr std::uint64_t child_seed(std::uint64_t base, StreamTag tag) {
  return mix_seed(base, static_cast<std::uint64_t>(tag));
}

/// xoshiro256** PRNG with convenience draws used by the simulator.
class Rng {
 public:
  /// Stream `tag` of `base`: seeded with child_seed(base, tag).
  Rng(std::uint64_t base, StreamTag tag) : Rng(child_seed(base, tag)) {}

  /// A generator seeded with `seed` as given.  Only for seeds that are
  /// pinned or derived elsewhere: the geometric fault schedule (its raw
  /// seed reproduces the committed baselines), the GCS's delivery stream
  /// (the driver derives its seed with StreamTag::kDelivery), and the
  /// fixed inputs of tests and microbenchmarks.
  static Rng from_raw_seed(std::uint64_t seed) { return Rng(seed); }

  /// Next raw 64-bit draw.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  /// Uses Lemire-style rejection to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) {
    DV_REQUIRE(bound > 0, "Rng::below requires a positive bound");
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    DV_REQUIRE(lo <= hi, "Rng::between requires lo <= hi");
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool chance(double p) {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return uniform() < p;
  }

 private:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dynvote
