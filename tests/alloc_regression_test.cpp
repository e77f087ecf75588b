// The hot path's heap allocations, fenced per algorithm: with the counting
// allocator linked, warmed-up steady-state protocol rounds must stay at or
// under each algorithm's ceiling.  YKD, unoptimized YKD and 1-pending are
// allocation-free at N=64 and at N=256 (past the 128-process inline limit,
// where ProcessSet spills into the freelist arena).  DFLS and MR1p build
// one payload per member per formation, so their ceilings scale with N.
// This is the regression fence for the small-buffer ProcessSet, the spill
// arena, the FunctionRef callbacks, the pooled round payloads and the
// cursor-based outboxes -- an extra allocation in any of them fails here
// with an exact count.
//
// This binary links dv_alloc_hook (see tests/CMakeLists.txt); if someone
// builds it without the hook the tests skip rather than vacuously passing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/process_set.hpp"
#include "gcs/gcs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/alloc_stats.hpp"

namespace dynvote {
namespace {

constexpr std::size_t kProcesses = 64;
constexpr int kWarmupCycles = 8;
constexpr int kMeasuredCycles = 4;
constexpr std::uint64_t kMinMeasuredRounds = 100;

/// Run protocol rounds until quiet, counting only the step_round work.
std::uint64_t settle(Gcs& gcs, std::uint64_t* allocs) {
  std::uint64_t rounds = 0;
  const std::uint64_t before = thread_allocations();
  while (gcs.step_round() && rounds < 1000) ++rounds;
  if (allocs != nullptr) *allocs += thread_allocations() - before;
  return rounds;
}

/// Steady-state allocations and rounds over `kMeasuredCycles` partition/
/// merge cycles of the lower half, after `kWarmupCycles` unmeasured ones
/// that bring every pooled payload, scratch vector and outbox to capacity.
struct SteadyCount {
  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
};

SteadyCount count_steady_rounds(AlgorithmKind kind, std::size_t processes) {
  Gcs gcs(kind, processes);
  ProcessSet lower_half(processes);
  for (ProcessId p = 0; p < processes / 2; ++p) lower_half.insert(p);
  SteadyCount count;
  for (int cycle = 0; cycle < kWarmupCycles + kMeasuredCycles; ++cycle) {
    std::uint64_t* allocs = cycle >= kWarmupCycles ? &count.allocs : nullptr;
    gcs.apply_partition(0, lower_half);
    const std::uint64_t split = settle(gcs, allocs);
    gcs.apply_merge(0, 1);
    const std::uint64_t merged = settle(gcs, allocs);
    if (allocs != nullptr) count.rounds += split + merged;
  }
  return count;
}

TEST(AllocRegression, SteadyStateRoundsStayUnderEachAlgorithmsCeiling) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  // Ceiling per round = N * numerator / denominator.
  struct Fence {
    AlgorithmKind kind;
    std::size_t numerator;
    std::size_t denominator;
  };
  const Fence fences[] = {
      {AlgorithmKind::kYkd, 0, 1},
      {AlgorithmKind::kYkdUnoptimized, 0, 1},
      {AlgorithmKind::kOnePending, 0, 1},
      {AlgorithmKind::kDfls, 3, 16},
      {AlgorithmKind::kMr1p, 1, 4},
      {AlgorithmKind::kSimpleMajority, 0, 1},
  };
  for (const Fence& fence : fences) {
    for (const std::size_t processes : {std::size_t{64}, std::size_t{256}}) {
      SCOPED_TRACE(std::string(to_string(fence.kind)) +
                   " N=" + std::to_string(processes));
      const SteadyCount count = count_steady_rounds(fence.kind, processes);
      // simple-majority sends nothing, so it has no rounds to count.
      if (fence.kind == AlgorithmKind::kSimpleMajority) {
        EXPECT_EQ(count.rounds, 0u);
      } else {
        EXPECT_GT(count.rounds, 0u);
      }
      const std::uint64_t per_round =
          processes * fence.numerator / fence.denominator;
      EXPECT_LE(count.allocs, per_round * count.rounds)
          << count.allocs << " allocations over " << count.rounds
          << " steady rounds; the ceiling is " << per_round << " per round";
    }
  }
}

/// The quiet case: rounds with no protocol traffic at all must obviously
/// stay allocation-free too (this is the common case in low-rate sweeps).
TEST(AllocRegression, QuiescentRoundsAreAllocationFree) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }

  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  settle(gcs, nullptr);  // drain the initial view formation

  const std::uint64_t before = thread_allocations();
  for (int i = 0; i < 100; ++i) (void)gcs.step_round();
  EXPECT_EQ(thread_allocations() - before, 0u);
}

/// The observability layer must not erode the guarantee: with tracing OFF
/// (the default), instrumented steady-state rounds at n=64 stay at zero
/// allocations -- the emission sites cost one relaxed load/add each, never
/// a heap touch.  install_view carries DV_OBS_INC/DV_TRACE_INSTANT sites,
/// so this variant counts the partition/merge applications too, not just
/// the round loop.
TEST(AllocRegression, TracingOffSteadyStateStaysAllocationFreeAtN64) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  ASSERT_FALSE(obs::trace_enabled());

  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  ProcessSet lower_half(kProcesses);
  for (ProcessId p = 0; p < kProcesses / 2; ++p) lower_half.insert(p);

  // Warm-up also interns the emission sites' metric names and allocates
  // this thread's metrics shard -- one-time costs, by design.
  for (int cycle = 0; cycle < kWarmupCycles; ++cycle) {
    gcs.apply_partition(0, lower_half);
    settle(gcs, nullptr);
    gcs.apply_merge(0, 1);
    settle(gcs, nullptr);
  }

  std::uint64_t rounds = 0;
  const std::uint64_t before = thread_allocations();
  while (rounds < kMinMeasuredRounds) {
    gcs.apply_partition(0, lower_half);
    while (gcs.step_round() && rounds < 100000) ++rounds;
    gcs.apply_merge(0, 1);
    while (gcs.step_round() && rounds < 100000) ++rounds;
  }
  const std::uint64_t allocs = thread_allocations() - before;

  EXPECT_GE(rounds, kMinMeasuredRounds);
  EXPECT_EQ(allocs, 0u)
      << "with tracing off, instrumented steady state allocated " << allocs
      << " times over " << rounds
      << " rounds; DV_OBS_*/DV_TRACE_* sites must be free when disarmed";
}

}  // namespace
}  // namespace dynvote
