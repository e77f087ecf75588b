// google-benchmark microbenchmarks: the per-operation costs underneath the
// simulation -- codec throughput, quorum math, a full protocol round, and
// whole simulated runs per algorithm (the unit of the availability study).
//
// Instead of BENCHMARK_MAIN(), a custom main records every run and writes
// a "dynvote.microbench.v1" manifest (MICRO_bench.json) next to the sweep
// manifests, so per-operation timings ride the same artifact pipeline and
// tools/bench_diff can compare them across commits.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "core/payload.hpp"
#include "core/quorum.hpp"
#include "obs/trace.hpp"
#include "runner/artifact.hpp"
#include "util/json.hpp"
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
  const auto encoded =
      encode_payload(typical_state(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    const PayloadPtr decoded = decode_payload(encoded);
    benchmark::DoNotOptimize(decoded.get());
  }
}
BENCHMARK(BM_DecodeStatePayload)->Arg(16)->Arg(64);

void BM_Subquorum(benchmark::State& state) {
  Rng rng(7);
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
    config.seed = child_seed(kBenchFullRunStreamTag, iteration++);
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
    config.seed = child_seed(kBenchFullRunUncheckedStreamTag, iteration++);
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

/// Collects every iteration-level run while still printing the normal
/// console table, so one pass feeds both the terminal and the manifest.
class ManifestCollector : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    std::int64_t iterations = 0;
    double real_ns = 0.0;  // per-iteration wall time
    double cpu_ns = 0.0;   // per-iteration CPU time
    std::vector<std::pair<std::string, double>> counters;
  };

  const std::vector<Entry>& entries() const { return entries_; }

 protected:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry entry;
      entry.name = run.benchmark_name();
      entry.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      // Accumulated times are in seconds regardless of the display unit.
      entry.real_ns = run.real_accumulated_time / iters * 1e9;
      entry.cpu_ns = run.cpu_accumulated_time / iters * 1e9;
      for (const auto& [counter_name, counter] : run.counters) {
        entry.counters.emplace_back(counter_name, counter.value);
      }
      entries_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  std::vector<Entry> entries_;
};

std::string microbench_manifest_json(
    const std::vector<ManifestCollector::Entry>& entries) {
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("dynvote.microbench.v1");
  json.key("created_unix")
      .value(static_cast<std::int64_t>(
          std::time(nullptr)));  // dvlint: ignore(determinism)
  json.key("git_describe").value(artifact_git_describe());
  json.key("alloc_hook_linked").value(alloc_hook_linked());
  json.key("benchmarks").begin_array();
  for (const ManifestCollector::Entry& entry : entries) {
    json.begin_object();
    json.key("name").value(entry.name);
    json.key("iterations").value(static_cast<std::int64_t>(entry.iterations));
    json.key("real_ns").value(entry.real_ns);
    json.key("cpu_ns").value(entry.cpu_ns);
    if (!entry.counters.empty()) {
      json.key("counters").begin_object();
      for (const auto& [name, value] : entry.counters) {
        json.key(name).value(value);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace
}  // namespace dynvote

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  dynvote::ManifestCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path = dynvote::write_artifact_document(
      "MICRO_bench.json",
      dynvote::microbench_manifest_json(reporter.entries()));
  if (!path.empty()) {
    std::fprintf(stderr, "microbench manifest: %s\n", path.c_str());
  }
  return 0;
}
