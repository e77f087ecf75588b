// Lock-free per-thread metrics registry: counters, gauges and power-of-two
// histograms, with a deterministic merge.
//
// The simulator's availability numbers are aggregate outcomes; the metrics
// layer records *how* they came about (rounds stepped, views installed,
// sessions resolved, shards stolen, leases churned) without ever touching
// simulation state.  The design splits the cost asymmetrically:
//
//   - Recording is a thread-local relaxed atomic add: no locks, no
//     allocation after a thread's first metric touch, safe under TSan.
//   - Snapshotting locks the registry, folds every live and retired
//     thread shard, and returns a name-sorted `MetricsSnapshot` whose
//     merge is associative and commutative -- so shard merge order (local
//     threads, remote workers, retired threads) cannot change the result.
//
// Metrics are observational only.  Nothing in this layer may feed back
// into simulation state or RNG streams; the dvlint `trace-purity` check
// enforces that emission sites stay side-effect free.  Snapshots travel in
// the volatile `observability` manifest block and on fabric heartbeats --
// never in the fingerprinted results document.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dynvote {

class Encoder;
class Decoder;

namespace obs {

/// Histogram buckets are powers of two by `std::bit_width`: bucket 0 holds
/// the value 0, bucket b>0 holds values in [2^(b-1), 2^b).  64-bit values
/// therefore need 65 buckets.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index a value lands in (== std::bit_width(value)).
std::size_t bucket_for(std::uint64_t value);

/// Smallest value belonging to `bucket` (0 for bucket 0).
std::uint64_t bucket_floor(std::size_t bucket);

/// One histogram's folded state: per-bucket counts plus the running sum of
/// recorded values (so mean survives the bucketing).
struct HistogramSnapshot {
  std::string name;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t sum = 0;

  std::uint64_t count() const;
};

/// Point-in-time fold of every registered metric across every thread.
/// Vectors are sorted by name; `merge` is associative and commutative
/// (counters and histogram buckets add, gauges take the max), so folding
/// snapshots from any number of shards in any order yields identical
/// bytes.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const;

  /// Fold `other` into this snapshot (union by name).
  void merge(const MetricsSnapshot& other);

  /// Counters and histograms as the increase over `base` (clamped at 0);
  /// gauges keep their current value.  Lets a long-lived process scope a
  /// snapshot to one sweep.
  MetricsSnapshot delta_since(const MetricsSnapshot& base) const;

  /// Wire body for fabric heartbeat frames.  Decoding normalizes ordering
  /// and bounds every count by the decoder's remaining bytes; malformed
  /// input throws DecodeError.
  void encode_body(Encoder& enc) const;
  static MetricsSnapshot decode_body(Decoder& dec);
};

/// Monotonically increasing event count.  Construction interns the name in
/// the process-wide registry (allocates, takes a lock); `inc` is a
/// thread-local relaxed atomic add.  Intended use is a function-local
/// static via DV_OBS_INC/DV_OBS_ADD.
class Counter {
 public:
  explicit Counter(const char* name);
  void inc(std::uint64_t delta = 1);

 private:
  std::uint32_t cell_;
};

/// Last-written value; cross-thread and cross-worker folds take the max.
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(std::uint64_t value);

 private:
  std::uint32_t cell_;
};

/// Power-of-two histogram (see kHistogramBuckets).  `record` is two
/// thread-local relaxed atomic adds (bucket + sum).
class Histogram {
 public:
  explicit Histogram(const char* name);
  void record(std::uint64_t value);

 private:
  std::uint32_t cell_;
};

/// Fold every live and retired thread shard into one name-sorted snapshot.
/// Safe to call while other threads keep recording (their in-flight
/// increments land in a later snapshot).
MetricsSnapshot snapshot_metrics();

}  // namespace obs
}  // namespace dynvote

// Emission macros.  Each site owns a function-local static handle, so the
// name is interned once and the steady-state cost is one guarded static
// check plus a relaxed atomic add.  Building with -DDV_OBS_DISABLE removes
// the sites entirely.  Arguments must be pure reads: the dvlint
// `trace-purity` check rejects RNG calls and state mutation inside them.
#ifndef DV_OBS_DISABLE
#define DV_OBS_ADD(name_literal, delta)                                      \
  do {                                                                       \
    static ::dynvote::obs::Counter dv_obs_counter_{name_literal};            \
    dv_obs_counter_.inc(static_cast<std::uint64_t>(delta));                  \
  } while (false)
#define DV_OBS_INC(name_literal) DV_OBS_ADD(name_literal, 1)
#define DV_OBS_SET(name_literal, value)                                      \
  do {                                                                       \
    static ::dynvote::obs::Gauge dv_obs_gauge_{name_literal};                \
    dv_obs_gauge_.set(static_cast<std::uint64_t>(value));                    \
  } while (false)
#define DV_OBS_RECORD(name_literal, value)                                   \
  do {                                                                       \
    static ::dynvote::obs::Histogram dv_obs_histogram_{name_literal};        \
    dv_obs_histogram_.record(static_cast<std::uint64_t>(value));             \
  } while (false)
#else
#define DV_OBS_ADD(name_literal, delta) \
  do {                                  \
    (void)sizeof(delta);                \
  } while (false)
#define DV_OBS_INC(name_literal) \
  do {                           \
  } while (false)
#define DV_OBS_SET(name_literal, value) \
  do {                                  \
    (void)sizeof(value);                \
  } while (false)
#define DV_OBS_RECORD(name_literal, value) \
  do {                                     \
    (void)sizeof(value);                   \
  } while (false)
#endif
