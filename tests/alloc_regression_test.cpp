// The hot path's heap allocations, fenced per algorithm: with the counting
// allocator linked, warmed-up steady-state protocol rounds must stay at or
// under each algorithm's ceiling.  Every algorithm is allocation-free at
// N=64 and at N=128 (ProcessSet::kMaxUniverse, both of a set's words
// full): each pools every payload it sends per view (reuse_payload).  This
// is the regression fence for the fixed-size ProcessSet, the FunctionRef
// callbacks, the group delivery, the pooled round payloads and the
// cursor-based outboxes -- an extra allocation in any of them fails here
// with an exact count.  Whole fresh-start runs are fenced too: a shard
// restarts one world for each of its later runs, and those runs must stay
// at the counts measured when the fault models stopped allocating; those
// models' draws are fenced at zero on their own.
//
// This binary links dv_alloc_hook (see tests/CMakeLists.txt); if someone
// builds it without the hook the tests skip rather than vacuously passing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/process_set.hpp"
#include "gcs/gcs.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/fault_model.hpp"
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
      {AlgorithmKind::kDfls, 0, 1},
      {AlgorithmKind::kMr1p, 0, 1},
      {AlgorithmKind::kSimpleMajority, 0, 1},
  };
  for (const Fence& fence : fences) {
    for (const std::size_t processes :
         {std::size_t{64}, ProcessSet::kMaxUniverse}) {
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

/// Allocations of the `restarted` runs that follow a fresh-start shard's
/// first run at N=64: a shard of 1 + `restarted` runs, less a shard of its
/// first run alone, which builds the world.  Deterministic: the runs, their
/// seeds and the world's buffers are the same every time.
std::uint64_t count_restarted_runs(AlgorithmKind kind,
                                   std::uint64_t restarted) {
  CaseSpec spec;
  spec.algorithm = kind;
  spec.processes = kProcesses;
  spec.changes = 6;
  spec.mean_rounds = 4.0;
  spec.mode = RunMode::kFreshStart;
  spec.base_seed = 24301;
  std::uint64_t before = thread_allocations();
  (void)run_case_shard(spec, 0, 1);
  const std::uint64_t first = thread_allocations() - before;
  before = thread_allocations();
  (void)run_case_shard(spec, 0, 1 + restarted);
  return thread_allocations() - before - first;
}

TEST(AllocRegression, RestartedFreshStartRunsStayUnderEachAlgorithmsCeiling) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  // A shard builds its world once and restarts it for each later run
  // (Simulation::restart), keeping every buffer and payload pool.  Each
  // ceiling is the count measured over 50 restarted 6-change runs once the
  // fault model stopped listing its candidates for every change (about 28
  // allocations a run fewer); building a new world per run costs several
  // hundred allocations a run more.
  constexpr std::uint64_t kRestartedRuns = 50;
  struct Fence {
    AlgorithmKind kind;
    std::uint64_t ceiling;
  };
  const Fence fences[] = {
      {AlgorithmKind::kYkd, 2192},
      {AlgorithmKind::kYkdUnoptimized, 2192},
      {AlgorithmKind::kDfls, 2607},
      {AlgorithmKind::kOnePending, 1974},
      {AlgorithmKind::kMr1p, 428},
      {AlgorithmKind::kSimpleMajority, 101},
  };
  for (const Fence& fence : fences) {
    SCOPED_TRACE(to_string(fence.kind));
    const std::uint64_t allocs =
        count_restarted_runs(fence.kind, kRestartedRuns);
    EXPECT_LE(allocs, fence.ceiling)
        << allocs << " allocations over " << kRestartedRuns
        << " restarted runs; the ceiling is " << fence.ceiling;
  }
}

// A fault model draws its next event by counting, never by listing the
// candidates: 1,000 events of each random model over a fragmented N=64
// world (eight components to start with) allocate nothing, each draw with
// its application to the GCS.  The world runs simple majority, which sends
// nothing, so no protocol traffic is counted; the geometric model takes
// crashes and recoveries too.
TEST(AllocRegression, FaultModelDrawsAreAllocationFree) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  constexpr int kDraws = 1000;
  const struct {
    FaultModelKind kind;
    double crash_fraction;
  } models[] = {
      {FaultModelKind::kGeometric, 0.25},
      {FaultModelKind::kSleepy, 0.0},
      {FaultModelKind::kRepairable, 0.0},
  };
  for (const auto& m : models) {
    SCOPED_TRACE(to_string(m.kind));
    FaultModelParams params;
    params.kind = m.kind;
    params.repair_capacity = 2;
    Gcs gcs(AlgorithmKind::kSimpleMajority, kProcesses);
    for (ProcessId first = 1; first < 8; ++first) {
      ProcessSet moved(kProcesses);
      for (ProcessId p = first; p < kProcesses; p += 8) moved.insert(p);
      gcs.apply_partition(0, moved);
    }
    ASSERT_EQ(gcs.topology().component_count(), 8u);
    const auto model =
        make_fault_model(params, 24301, 4.0, m.crash_fraction, kProcesses);
    const std::uint64_t before = thread_allocations();
    for (int i = 0; i < kDraws; ++i) {
      (void)model->next_gap();
      model->apply_next(gcs);
    }
    EXPECT_EQ(thread_allocations() - before, 0u);
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

/// The trace recorder must not erode the guarantee: with tracing OFF (the
/// default), instrumented steady-state rounds at n=64 stay at zero
/// allocations -- a disarmed emission site costs one relaxed load and a
/// branch, never a heap touch.  install_view carries a DV_TRACE_INSTANT
/// site, so this variant counts the partition/merge applications too, not
/// just the round loop.
TEST(AllocRegression, TracingOffSteadyStateStaysAllocationFreeAtN64) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  ASSERT_FALSE(obs::trace_enabled());

  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  ProcessSet lower_half(kProcesses);
  for (ProcessId p = 0; p < kProcesses / 2; ++p) lower_half.insert(p);

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
      << " rounds; DV_TRACE_* sites must be free when disarmed";
}

}  // namespace
}  // namespace dynvote
