// Thread-local freelist arena behind ProcessSet's spill storage.
//
// Universes past the two-word inline limit (N > 128) spill to a heap
// vector, and those vectors churn at protocol-round rate: every united_with
// / intersected_with / minus in the quorum rules builds one.  The arena
// turns each allocate/deallocate into a size-class freelist pop/push --
// blocks come from bump-allocated chunks and are never returned to the
// general heap until thread exit -- so once the freelists are warm, spills
// add no heap allocations to the steady-state round loop at any N.  This is
// what keeps the rounds of YKD, unoptimized YKD and 1-pending allocation-free
// past the SBO boundary (alloc_regression_test fences every algorithm at
// N=256).
//
// The arena is deliberately per-thread (sweep workers never share
// ProcessSet storage), so no lock is ever taken on the allocation path; a
// global registry aggregates per-thread counters for telemetry only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dynvote {

/// Counters for one thread's arena (or the merged view of all of them).
/// Pure telemetry: reading them never perturbs the allocation path.
struct SpillArenaStats {
  std::uint64_t allocs = 0;          ///< requests served (hits + misses)
  std::uint64_t freelist_hits = 0;   ///< served from a warm freelist
  std::uint64_t chunk_bytes = 0;     ///< bytes fetched from the heap, total
  std::uint64_t live_bytes = 0;      ///< currently outstanding block bytes
  std::uint64_t peak_bytes = 0;      ///< high-water mark of live_bytes

  SpillArenaStats& operator+=(const SpillArenaStats& other) {
    allocs += other.allocs;
    freelist_hits += other.freelist_hits;
    chunk_bytes += other.chunk_bytes;
    live_bytes += other.live_bytes;
    peak_bytes += other.peak_bytes;  // summed high-water: an upper bound
    return *this;
  }
};

/// Allocate `bytes` from the calling thread's arena.  Oversize requests
/// (beyond the largest size class) fall through to operator new.
void* spill_arena_allocate(std::size_t bytes);

/// Return a block obtained from spill_arena_allocate with the same size.
void spill_arena_deallocate(void* p, std::size_t bytes) noexcept;

/// This thread's counters.
SpillArenaStats spill_arena_thread_stats();

/// Counters merged across every thread that ever used the arena, including
/// exited ones (their totals are folded into a retired bucket).
SpillArenaStats spill_arena_merged_stats();

/// Minimal stateless allocator adapter so a std::vector can live in the
/// arena.  All instances are interchangeable (is_always_equal), which keeps
/// vector moves noexcept and pointer-stealing.
template <typename T>
struct SpillArenaAllocator {
  using value_type = T;

  SpillArenaAllocator() = default;
  template <typename U>
  SpillArenaAllocator(const SpillArenaAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(spill_arena_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    spill_arena_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const SpillArenaAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace dynvote
