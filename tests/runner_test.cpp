// The sweep scheduler: bit-identity with the serial path for every
// algorithm and both modes, shard-merge exactness, failure propagation,
// and the progress hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "runner/artifact.hpp"
#include "runner/sweep.hpp"

namespace dynvote {
namespace {

CaseSpec small_case(AlgorithmKind kind, RunMode mode) {
  CaseSpec spec;
  spec.algorithm = kind;
  spec.processes = 16;
  spec.changes = 4;
  spec.mean_rounds = 3.0;
  spec.runs = 40;
  spec.mode = mode;
  spec.base_seed = 777;
  return spec;
}

void expect_identical(const CaseResult& a, const CaseResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.success_per_run, b.success_per_run);
  EXPECT_EQ(a.stable.buckets, b.stable.buckets);
  EXPECT_EQ(a.stable.samples, b.stable.samples);
  EXPECT_EQ(a.stable.max_observed, b.stable.max_observed);
  EXPECT_EQ(a.in_progress.buckets, b.in_progress.buckets);
  EXPECT_EQ(a.in_progress.samples, b.in_progress.samples);
  EXPECT_EQ(a.in_progress.max_observed, b.in_progress.max_observed);
  EXPECT_EQ(a.total_rounds, b.total_rounds);
  EXPECT_EQ(a.total_changes, b.total_changes);
  EXPECT_EQ(a.total_rounds_with_primary, b.total_rounds_with_primary);
  EXPECT_EQ(a.wire.messages_sent, b.wire.messages_sent);
  EXPECT_EQ(a.wire.protocol_messages_sent, b.wire.protocol_messages_sent);
  EXPECT_EQ(a.wire.max_message_bytes, b.wire.max_message_bytes);
  EXPECT_EQ(a.wire.total_message_bytes, b.wire.total_message_bytes);
  EXPECT_EQ(a.invariant_checks, b.invariant_checks);
}

// The headline guarantee: a parallel sweep at 4 workers, with shards small
// enough that every fresh-start case splits, reproduces the serial
// `run_case` bit for bit -- for every algorithm and both modes.
TEST(Sweep, ParallelBitIdenticalToSerialEverywhere) {
  for (RunMode mode : {RunMode::kFreshStart, RunMode::kCascading}) {
    SweepSpec sweep;
    sweep.jobs = 4;
    sweep.min_shard_runs = 8;  // 40-run cases shard into several pieces
    NullProgress quiet;
    sweep.progress = &quiet;
    for (AlgorithmKind kind : all_algorithm_kinds()) {
      SweepCase c;
      c.spec = small_case(kind, mode);
      c.spec.measure_wire_sizes = true;  // wire stats must merge exactly too
      sweep.cases.push_back(std::move(c));
    }
    const SweepResult swept = run_sweep(sweep);
    ASSERT_EQ(swept.cases.size(), all_algorithm_kinds().size());

    for (std::size_t i = 0; i < swept.cases.size(); ++i) {
      SCOPED_TRACE(swept.cases[i].algorithm + " / " + to_string(mode));
      const CaseResult serial = run_case(swept.cases[i].spec);
      expect_identical(swept.cases[i].result, serial);
    }
  }
}

TEST(Sweep, ShardBoundariesNeverChangeResults) {
  SweepCase c;
  c.spec = small_case(AlgorithmKind::kYkd, RunMode::kFreshStart);
  const CaseResult serial = run_case(c.spec);
  for (std::uint64_t min_shard : {1u, 7u, 16u, 100u}) {
    SweepSpec sweep;
    sweep.jobs = 3;
    sweep.min_shard_runs = min_shard;
    NullProgress quiet;
    sweep.progress = &quiet;
    sweep.cases = {c};
    const SweepResult swept = run_sweep(sweep);
    SCOPED_TRACE(min_shard);
    expect_identical(swept.cases[0].result, serial);
  }
}

TEST(Sweep, ResultsAlignWithCaseOrderAndCarryTelemetry) {
  SweepSpec sweep;
  sweep.jobs = 2;
  NullProgress quiet;
  sweep.progress = &quiet;
  sweep.cases = availability_grid(
      {AlgorithmKind::kYkd, AlgorithmKind::kSimpleMajority}, {0.0, 3.0}, 4,
      RunMode::kFreshStart, 20, 777, 16);
  ASSERT_EQ(sweep.cases.size(), 4u);

  const SweepResult swept = run_sweep(sweep);
  ASSERT_EQ(swept.cases.size(), 4u);
  EXPECT_EQ(swept.cases[0].algorithm, "ykd");
  EXPECT_EQ(swept.cases[2].algorithm, "simple-majority");
  EXPECT_EQ(swept.cases[1].spec.mean_rounds, 3.0);
  for (const CaseOutcome& outcome : swept.cases) {
    EXPECT_EQ(outcome.result.runs, 20u);
    EXPECT_GT(outcome.result.invariant_checks, 0u);
    EXPECT_GT(outcome.compute_seconds, 0.0);
  }
  EXPECT_GT(swept.wall_seconds, 0.0);
  EXPECT_EQ(swept.jobs, 2u);
}

TEST(Sweep, FactoryCasesRunUnderTheirLabel) {
  SweepSpec sweep;
  sweep.jobs = 2;
  NullProgress quiet;
  sweep.progress = &quiet;
  SweepCase c;
  c.algorithm = "custom-ykd";
  c.spec = small_case(AlgorithmKind::kSimpleMajority, RunMode::kFreshStart);
  c.spec.algorithm_factory = [](ProcessId self, const View& initial) {
    return make_algorithm(AlgorithmKind::kYkd, self, initial);
  };
  sweep.cases = {c};
  const SweepResult swept = run_sweep(sweep);
  EXPECT_EQ(swept.cases[0].algorithm, "custom-ykd");
  expect_identical(swept.cases[0].result, run_case(c.spec));
}

class CountingSink final : public ProgressSink {
 public:
  void case_done(const CaseTelemetry& telemetry, std::size_t done,
                 std::size_t total) override {
    ++cases_seen;
    last_done = done;
    last_total = total;
    EXPECT_FALSE(telemetry.label.empty());
    EXPECT_GT(telemetry.runs, 0u);
  }
  void sweep_done(const std::string&, std::size_t, double) override {
    ++sweeps_seen;
  }

  std::atomic<std::size_t> cases_seen{0};
  std::size_t last_done = 0;
  std::size_t last_total = 0;
  std::size_t sweeps_seen = 0;
};

TEST(Sweep, ProgressSinkSeesEveryCaseExactlyOnce) {
  CountingSink sink;
  SweepSpec sweep;
  sweep.jobs = 4;
  sweep.min_shard_runs = 8;
  sweep.progress = &sink;
  sweep.cases = availability_grid({AlgorithmKind::kYkd}, {0.0, 2.0, 4.0}, 4,
                                  RunMode::kFreshStart, 24, 777, 16);
  (void)run_sweep(sweep);
  EXPECT_EQ(sink.cases_seen.load(), 3u);
  EXPECT_EQ(sink.last_done, 3u);
  EXPECT_EQ(sink.last_total, 3u);
  EXPECT_EQ(sink.sweeps_seen, 1u);
}

// The seven figure sweeps (Figures 4-1..4-6 availability grids plus the
// 4-7/4-8 ambiguous-sessions grid), smoke-sized: one worker with no
// sharding versus eight workers with shards forced down to single runs
// must render byte-identical deterministic manifests.
TEST(Sweep, SevenFigureSweepsIdenticalManifestsAcrossJobs) {
  const std::vector<AlgorithmKind> pair = {AlgorithmKind::kYkd,
                                           AlgorithmKind::kDfls};
  const std::vector<AlgorithmKind> trio = {AlgorithmKind::kYkd,
                                           AlgorithmKind::kYkdUnoptimized,
                                           AlgorithmKind::kDfls};
  const std::vector<double> rates = {0.0, 3.0};

  std::vector<SweepSpec> figures;
  for (RunMode mode : {RunMode::kFreshStart, RunMode::kCascading}) {
    for (std::size_t changes : {2u, 6u, 12u}) {  // Figures 4-1..4-6
      SweepSpec sweep;
      sweep.cases = availability_grid(pair, rates, changes, mode, 8, 777, 12);
      for (SweepCase& c : sweep.cases) c.spec.measure_wire_sizes = true;
      figures.push_back(std::move(sweep));
    }
  }
  SweepSpec ambiguous;  // Figures 4-7/4-8
  for (AlgorithmKind kind : trio) {
    for (std::size_t changes : {2u, 6u, 12u}) {
      auto grid = availability_grid({kind}, {3.0}, changes,
                                    RunMode::kFreshStart, 8, 777, 12);
      ambiguous.cases.insert(ambiguous.cases.end(), grid.begin(), grid.end());
    }
  }
  figures.push_back(std::move(ambiguous));
  ASSERT_EQ(figures.size(), 7u);

  NullProgress quiet;
  for (std::size_t f = 0; f < figures.size(); ++f) {
    SCOPED_TRACE("figure sweep " + std::to_string(f));
    SweepSpec serial = figures[f];
    serial.jobs = 1;
    serial.progress = &quiet;
    SweepSpec parallel = figures[f];
    parallel.jobs = 8;
    parallel.min_shard_runs = 1;  // every 8-run case splits into 1-run shards
    parallel.progress = &quiet;

    const SweepResult a = run_sweep(serial);
    const SweepResult b = run_sweep(parallel);
    EXPECT_EQ(manifest_results_json(serial, a), manifest_results_json(parallel, b));
    EXPECT_EQ(results_fingerprint(serial, a), results_fingerprint(parallel, b));
  }
}

std::uint64_t counter_value(const obs::MetricsSnapshot& metrics,
                            const std::string& name) {
  for (const auto& [counter, value] : metrics.counters) {
    if (counter == name) return value;
  }
  return 0;
}

// The min_shard_runs knob bounds fresh-start chunks: with runs=40, jobs=4
// and a floor of 8 a fresh-start case executes as five 8-run shards, and a
// floor above the run count keeps it whole.  A cascading case is never
// split, whatever the floor.  Either way the merged result is the serial
// one.
TEST(Sweep, MinShardRunsSplitsFreshStartCasesOnly) {
  for (RunMode mode : {RunMode::kFreshStart, RunMode::kCascading}) {
    SweepCase c;
    c.spec = small_case(AlgorithmKind::kYkd, mode);
    c.spec.measure_wire_sizes = true;
    const CaseResult serial = run_case(c.spec);
    const std::size_t split = mode == RunMode::kFreshStart ? 5 : 1;

    for (const auto& [min_shard, want_shards] :
         {std::pair<std::uint64_t, std::size_t>{8, split},
          std::pair<std::uint64_t, std::size_t>{100, 1}}) {
      SCOPED_TRACE(std::string(to_string(mode)) + " min_shard=" +
                   std::to_string(min_shard));
      SweepSpec sweep;
      sweep.jobs = 4;
      sweep.min_shard_runs = min_shard;
      NullProgress quiet;
      sweep.progress = &quiet;
      sweep.cases = {c};
      const SweepResult swept = run_sweep(sweep);
      EXPECT_EQ(swept.cases[0].shards, want_shards);
      expect_identical(swept.cases[0].result, serial);
    }
  }
}

// A cascading case threads one world through all its runs, so even a case
// big enough to split four ways on four workers runs whole: one shard, and
// the sweep simulates each of its rounds exactly once -- no replay adds
// rounds of its own to the sweep's round counter.
TEST(Sweep, CascadingCaseSimulatesEachRoundOnce) {
  constexpr std::uint64_t kMinShard = 8;
  SweepCase c;
  c.spec = small_case(AlgorithmKind::kYkd, RunMode::kCascading);
  c.spec.runs = 4 * kMinShard;
  SweepSpec sweep;
  sweep.jobs = 4;
  sweep.min_shard_runs = kMinShard;
  NullProgress quiet;
  sweep.progress = &quiet;
  sweep.cases = {c};

  const SweepResult swept = run_sweep(sweep);
  ASSERT_EQ(swept.cases.size(), 1u);
  const CaseOutcome& outcome = swept.cases[0];
  EXPECT_EQ(outcome.shards, 1u);
  EXPECT_GT(outcome.result.total_rounds, 0u);
  EXPECT_EQ(counter_value(swept.metrics, "sim.rounds"),
            outcome.result.total_rounds);
  expect_identical(outcome.result, run_case(c.spec));
}

// Work stealing: pin one case that dwarfs the rest and force tiny shards;
// idle workers must drain the queue by claiming pieces of the slow case
// (several shards, at least one claimed by a different worker), and every
// result -- slow and fast alike -- still matches the serial path.
TEST(Sweep, WorkStealingDrainsTheSlowCase) {
  SweepSpec sweep;
  sweep.jobs = 4;
  sweep.min_shard_runs = 1;
  NullProgress quiet;
  sweep.progress = &quiet;

  SweepCase slow;
  slow.spec = small_case(AlgorithmKind::kYkd, RunMode::kFreshStart);
  slow.spec.processes = 24;
  slow.spec.changes = 8;
  slow.spec.runs = 64;
  sweep.cases.push_back(slow);
  for (AlgorithmKind kind :
       {AlgorithmKind::kSimpleMajority, AlgorithmKind::kOnePending,
        AlgorithmKind::kDfls}) {
    SweepCase fast;
    fast.spec = small_case(kind, RunMode::kFreshStart);
    fast.spec.runs = 4;
    sweep.cases.push_back(fast);
  }

  const SweepResult swept = run_sweep(sweep);
  ASSERT_EQ(swept.cases.size(), 4u);
  EXPECT_GE(swept.cases[0].shards, 2u);
  EXPECT_GE(swept.cases[0].steals, 1u);
  for (const CaseOutcome& outcome : swept.cases) {
    SCOPED_TRACE(outcome.algorithm);
    expect_identical(outcome.result, run_case(outcome.spec));
  }
}

TEST(Sweep, JobsFromEnvRespectsOverride) {
  ::setenv("DV_JOBS", "3", 1);
  EXPECT_EQ(jobs_from_env(), 3u);
  ::setenv("DV_JOBS", "0", 1);
  EXPECT_EQ(jobs_from_env(), 1u);  // zero clamps to one worker
  ::unsetenv("DV_JOBS");
  EXPECT_GE(jobs_from_env(), 1u);
}

// The board splits a sweep once: whole-case units (cascading or zero-run
// cases) first, then fresh-start chunks of max(floor, runs / (4 * max(4,
// workers))) -- also for a worker count whose product would overflow.
TEST(UnitBoard, SplitsWholeCasesFirstThenFreshChunks) {
  SweepSpec sweep;
  sweep.cases = availability_grid({AlgorithmKind::kYkd}, {2.0}, 4,
                                  RunMode::kFreshStart, 200, 777, 16);
  sweep.cases.push_back(sweep.cases[0]);
  sweep.cases[1].spec.mode = RunMode::kCascading;
  sweep.cases.push_back(sweep.cases[0]);
  sweep.cases[2].spec.runs = 0;

  const UnitBoard four(sweep, 4);  // 200 / 16 = 12 runs, below the floor
  ASSERT_EQ(four.unit_count(), 2u + 7u);
  EXPECT_EQ(four.unit(0).case_index, 1u);
  EXPECT_EQ(four.unit(0).run_count, 200u);
  EXPECT_EQ(four.unit(1).case_index, 2u);
  EXPECT_EQ(four.unit(2).case_index, 0u);
  EXPECT_EQ(four.unit(2).run_count, kAutoShardFloor);
  EXPECT_EQ(four.unit(8).first_run, 192u);
  EXPECT_EQ(four.unit(8).run_count, 8u);

  sweep.min_shard_runs = 1;
  EXPECT_EQ(UnitBoard(sweep, 4).unit(2).run_count, 12u);
  EXPECT_EQ(UnitBoard(sweep, 8).unit(2).run_count, 6u);
  EXPECT_EQ(UnitBoard(sweep, std::size_t{1} << 62).unit(2).run_count, 1u);
}

// A unit that throws fails the whole sweep: further claims stop and the
// first exception reaches the caller once every worker has stopped, on a
// one-job sweep (the calling thread alone) and a four-job one alike.
TEST(Sweep, WorkerExceptionFailsTheSweep) {
  for (std::size_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    SweepSpec sweep;
    sweep.jobs = jobs;
    NullProgress quiet;
    sweep.progress = &quiet;
    sweep.cases = availability_grid({AlgorithmKind::kYkd}, {0.0, 2.0}, 4,
                                    RunMode::kFreshStart, 8, 777, 12);
    SweepCase broken;
    broken.algorithm = "broken";
    broken.spec = small_case(AlgorithmKind::kYkd, RunMode::kFreshStart);
    broken.spec.algorithm_factory = [](ProcessId, const View&)
        -> std::unique_ptr<PrimaryComponentAlgorithm> {
      throw std::runtime_error("factory failed");
    };
    sweep.cases.push_back(std::move(broken));
    EXPECT_THROW((void)run_sweep(sweep), std::runtime_error);
  }
}

}  // namespace
}  // namespace dynvote
