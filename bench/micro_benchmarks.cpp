// google-benchmark microbenchmarks: the per-operation costs underneath the
// simulation -- codec throughput, quorum math, a full protocol round, and
// whole simulated runs per algorithm (the unit of the availability study).
//
// google-benchmark's own flags record the runs: --benchmark_out=FILE
// --benchmark_out_format=json writes every timing and counter.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "core/payload.hpp"
#include "core/quorum.hpp"
#include "obs/trace.hpp"
#include "sim/driver.hpp"
#include "util/alloc_stats.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

StateExchangePayload typical_state(std::size_t processes) {
  StateExchangePayload p;
  p.view_id = 3;
  p.session_number = 40;
  p.last_primary = Session{39, ProcessSet::full(processes)};
  for (int i = 0; i < 2; ++i) {
    p.ambiguous.push_back(Session{40u + i, ProcessSet::full(processes)});
  }
  p.last_formed.assign(processes, Session{39, ProcessSet::full(processes)});
  return p;
}

void BM_EncodeStatePayload(benchmark::State& state) {
  const auto payload = typical_state(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto encoded = encode_payload(payload);
    bytes = encoded.size();
    benchmark::DoNotOptimize(encoded.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_EncodeStatePayload)->Arg(16)->Arg(64);

void BM_DecodeStatePayload(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto encoded = encode_payload(typical_state(n));
  for (auto _ : state) {
    const PayloadPtr decoded = decode_payload(encoded, n);
    benchmark::DoNotOptimize(decoded.get());
  }
}
BENCHMARK(BM_DecodeStatePayload)->Arg(16)->Arg(64);

void BM_Subquorum(benchmark::State& state) {
  Rng rng = Rng::from_raw_seed(7);
  const std::size_t n = 64;
  ProcessSet candidate(n), of = ProcessSet::full(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (rng.chance(0.6)) candidate.insert(p);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_subquorum(candidate, of));
  }
}
BENCHMARK(BM_Subquorum);

void BM_ProtocolRound(benchmark::State& state) {
  // One steady-state exchange round at 64 processes: everyone's state
  // delivered to everyone, and every member's decision.  The world is first
  // warmed through partition/merge cycles so every pooled payload and
  // scratch buffer is at capacity -- the state alloc_regression_test proves
  // allocation-free -- then each iteration re-forms the full view untimed
  // and times only that round.
  constexpr std::size_t kProcesses = 64;
  constexpr int kWarmupCycles = 8;
  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  const ProcessSet detached(kProcesses, {60, 61, 62, 63});
  const auto settle = [&] {
    while (gcs.step_round()) {
    }
  };
  // Detach four processes and re-merge them; returns with the merged view's
  // states queued for the next round.
  const auto remerge = [&] {
    settle();
    gcs.apply_partition(0, detached);
    settle();
    gcs.apply_merge(0, 1);
    gcs.step_round();
  };
  for (int cycle = 0; cycle < kWarmupCycles; ++cycle) remerge();

  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    remerge();
    state.ResumeTiming();
    const std::uint64_t before = thread_allocations();
    gcs.step_round();  // 64x64 deliveries + decisions
    allocs += thread_allocations() - before;
    ++rounds;
  }
  if (alloc_hook_linked() && rounds > 0) {
    state.counters["allocs_per_round"] =
        static_cast<double>(allocs) / static_cast<double>(rounds);
  }
}
BENCHMARK(BM_ProtocolRound)->Unit(benchmark::kMicrosecond);

void BM_FullRun(benchmark::State& state) {
  const auto kind = static_cast<AlgorithmKind>(state.range(0));
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    SimulationConfig config;
    config.algorithm = kind;
    config.processes = 64;
    config.changes_per_run = 6;
    config.mean_rounds_between_changes = 4.0;
    config.seed = child_seed(iteration++, StreamTag::kBenchFullRun);
    Simulation sim(config);
    benchmark::DoNotOptimize(sim.run_once().primary_at_end);
  }
}
BENCHMARK(BM_FullRun)
    ->Unit(benchmark::kMillisecond)
    ->Arg(static_cast<int>(AlgorithmKind::kYkd))
    ->Arg(static_cast<int>(AlgorithmKind::kDfls))
    ->Arg(static_cast<int>(AlgorithmKind::kOnePending))
    ->Arg(static_cast<int>(AlgorithmKind::kMr1p))
    ->Arg(static_cast<int>(AlgorithmKind::kSimpleMajority));

void BM_FullRunNoInvariantChecks(benchmark::State& state) {
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    SimulationConfig config;
    config.algorithm = AlgorithmKind::kYkd;
    config.processes = 64;
    config.changes_per_run = 6;
    config.mean_rounds_between_changes = 4.0;
    config.seed = child_seed(iteration++, StreamTag::kBenchFullRunUnchecked);
    config.check_invariants = false;
    Simulation sim(config);
    benchmark::DoNotOptimize(sim.run_once().primary_at_end);
  }
}
BENCHMARK(BM_FullRunNoInvariantChecks)->Unit(benchmark::kMillisecond);

void BM_TraceEvent(benchmark::State& state) {
  // Cost of recording one armed trace instant: a steady_clock read plus a
  // thread-local ring write.  Compare against the disabled path, which is
  // a single relaxed load and branch (effectively free).
  const bool enabled = state.range(0) != 0;
  if (enabled) obs::trace_enable(1 << 12);
  const std::uint32_t name = obs::intern_trace_name("bench.trace_event");
  std::uint64_t i = 0;
  for (auto _ : state) {
    obs::trace_emit(obs::EventKind::kInstant, name, i++, 0);
  }
  if (enabled) {
    obs::trace_disable();
    benchmark::DoNotOptimize(obs::trace_drain().events.size());
  }
}
BENCHMARK(BM_TraceEvent)
    ->Arg(0)  // disarmed: the always-on cost at every emission site
    ->Arg(1)  // armed: the DV_TRACE=1 cost
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace dynvote

BENCHMARK_MAIN();
