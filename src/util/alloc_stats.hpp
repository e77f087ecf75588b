// Opt-in heap-allocation counting, the measurement side of the repo's
// allocation-free-hot-path guarantee.
//
// The counters below are always present (and always cheap: one thread-local
// increment per counted allocation), but they only ever advance when the
// counting allocator is linked into the binary.  The allocator lives in the
// separate `dv_alloc_hook` object library, which replaces the global
// operator new/delete; binaries that want real numbers (the allocation
// regression test, the microbenchmarks, the sweep benchmark) link it,
// everything else pays nothing.
//
// Counting is per-thread, so a section measured on one thread never counts
// what other threads allocate meanwhile.
#pragma once

#include <cstdint>

namespace dynvote {

/// Heap allocations made by the calling thread since it started, as seen by
/// the counting allocator.  Always 0 when `dv_alloc_hook` is not linked.
/// Measure sections by differencing two reads on the same thread.
std::uint64_t thread_allocations();

/// True when the counting operator new/delete from `dv_alloc_hook` are
/// linked into this binary (telemetry emitters use this to distinguish
/// "zero allocations" from "not measured").
bool alloc_hook_linked();

namespace alloc_detail {
// Called by the dv_alloc_hook operators; not for general use.
void count_allocation() noexcept;
void mark_hook_linked() noexcept;
}  // namespace alloc_detail

}  // namespace dynvote
