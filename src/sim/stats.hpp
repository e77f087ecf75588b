// Aggregation of run results into the statistics the figures report.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/driver.hpp"

namespace dynvote {

class Encoder;
class Decoder;

/// Histogram over ambiguous-session counts with the bucketing of
/// Figures 4-7/4-8: 0, 1, 2, 3, and "4+".
struct AmbiguityHistogram {
  static constexpr std::size_t kBuckets = 5;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t samples = 0;
  std::size_t max_observed = 0;

  void record(std::size_t count);

  /// Percent of samples that fell into `bucket` (4 = "4 or more").
  double percent(std::size_t bucket) const;

  /// Percent of samples with at least one ambiguous session -- the total
  /// bar height in the thesis's figures.
  double percent_nonzero() const;

  void merge(const AmbiguityHistogram& other);

  /// Lossless wire form (util/codec.hpp) for fabric result frames.
  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

/// Everything measured for one case (algorithm x #changes x rate x mode).
struct CaseResult {
  std::uint64_t runs = 0;
  std::uint64_t successes = 0;
  /// Per-run outcomes, for paired comparisons between algorithms run on the
  /// identical fault schedule (e.g. the thesis's "YKD succeeds in ~3% of
  /// runs where DFLS does not").
  std::vector<bool> success_per_run;
  /// Observer's ambiguous sessions at the stable end of each run (Fig 4-7).
  AmbiguityHistogram stable;
  /// Observer's ambiguous sessions at each injected change (Fig 4-8).
  AmbiguityHistogram in_progress;
  std::uint64_t total_rounds = 0;
  std::uint64_t total_changes = 0;
  std::uint64_t total_rounds_with_primary = 0;
  /// Wire-level totals across all runs (populated when the case was run
  /// with `measure_wire_sizes`); aggregated per run in both modes.
  WireStats wire;
  /// Safety-checker executions across all runs (observability: confirms
  /// the invariant checker actually ran, and how hard).
  std::uint64_t invariant_checks = 0;
  /// (message, recipient) deliveries across all runs, round and flush
  /// alike: the unit the round loop is optimized around.  Deterministic,
  /// but manifests write it outside the results fingerprint.
  std::uint64_t total_deliveries = 0;

  double availability_percent() const;

  /// Percent of executed rounds during which a primary existed -- the
  /// in-run availability measure.
  double in_run_availability_percent() const;

  void record(const RunResult& run);

  /// Append `shard`, the aggregate of the runs immediately following this
  /// result's runs within the same case.  Because every per-case statistic
  /// is an order-respecting concatenation, a sum, or a max, merging
  /// contiguous shards in run order is bit-identical to recording every
  /// run serially -- the property the parallel sweep runner relies on.
  void merge(const CaseResult& shard);

  /// Lossless wire form (util/codec.hpp): the payload of a fabric result
  /// frame.  Round-trips every field exactly, so a shard computed on a
  /// remote worker merges bit-identically to one computed in-process
  /// (fabric_test asserts this end to end).
  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

/// Percent of runs where `a` succeeded and `b` failed, over paired runs.
double percent_a_wins(const CaseResult& a, const CaseResult& b);

}  // namespace dynvote
