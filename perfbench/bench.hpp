// Shared declarations of the sweep benchmark (dvperf).
//
// The benchmark drives the library only through its public API: workloads
// are SweepSpecs built with availability_grid / CaseSpec and run through
// run_sweep (end-to-end numbers), and the per-layer numbers come from a
// separate pass that times and counts calls into each layer's public
// functions from outside (layers.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The seed the thesis figures use; per-case reference results are
/// recorded for it (perfbench/reference/<workload>.tsv).
inline constexpr std::uint64_t kReferenceSeed = 0x5eed;

/// One named metric as printed: value plus unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Workload {
  std::string name;
  /// The run_sweep calls of one repetition, in order.
  std::vector<dynvote::SweepSpec> sweeps;
  /// Worker threads every sweep runs with.
  std::size_t jobs = 1;
  /// The traced pass samples every `sample_stride`-th case.
  std::size_t sample_stride = 1;
};

/// Build `name`'s sweeps from `seed`, keeping every `case_stride`-th case
/// of each sweep (1 = the full workload; larger strides are the smoke
/// test's shortened form).  Manifests are named after the workload.
/// nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::size_t case_stride);

/// The small unnamed sweep run during set-up: one case per algorithm, so
/// allocator, arena and cache start-up costs are paid before timing starts.
dynvote::SweepSpec warmup_sweep(const Workload& workload);

/// Hex FNV-1a digest of a case's deterministic results: runs, successes,
/// success_per_run, both ambiguity histograms, total_rounds,
/// total_changes, rounds with a primary, total_deliveries and
/// invariant_checks (wire statistics are excluded: they are only filled
/// when wire sizes are measured).
std::string results_digest(const dynvote::CaseResult& result);

/// Reference digests keyed by "<sweep name>\t<case label>".
using Reference = std::map<std::string, std::string>;

std::string reference_key(const dynvote::SweepSpec& sweep,
                          const dynvote::SweepCase& sweep_case);

/// Read a reference file; nullopt when it does not exist.  Throws
/// std::runtime_error on a malformed file.
std::optional<Reference> load_reference(const std::string& path);

/// Write one line per case of `results` (parallel to `workload.sweeps`).
void save_reference(const std::string& path, const Workload& workload,
                    const std::vector<dynvote::SweepResult>& results);

/// A case of the workload chosen for the traced pass, with the outcome the
/// untraced sweep produced for it.
struct SampleCase {
  const dynvote::SweepCase* sweep_case = nullptr;
  const dynvote::CaseOutcome* outcome = nullptr;
};

struct LayerReport {
  std::vector<Metric> metrics;
  /// Sampled cases times passes compared against the untraced sweep.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The traced pass: re-run `sample` through the public Simulation API,
/// untraced and traced, and derive the sim/gcs/core metrics plus the
/// tracing overhead.  Every pass's per-case results must equal the
/// untraced sweep's; mismatches are counted in `failed`.
/// `algorithms` names every algorithm that gets a core.self_frac.<name>
/// metric.
LayerReport measure_layers(const std::vector<SampleCase>& sample,
                           const std::vector<std::string>& algorithms);

/// A fixed kernel of the benchmark's own (host.cpp), run in a child process:
/// how fast the shared host runs allocation-heavy work on a given core at
/// a given moment.  Create it before any thread starts (it forks); the
/// destructor ends the child and waits for it.
class HostProbe {
 public:
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the kernel on the calling thread's core while the caller waits;
  /// returns one block's CPU seconds (the median block).
  double measure_here();

  /// measure_here() on the host the benchmark was sized on, at its fastest.
  /// An end-to-end time is scaled by kNominalSeconds over the mean of the
  /// measurements taken while it ran.
  static constexpr double kNominalSeconds = 0.45e-3;

 private:
  int pid_ = -1;
  int requests_ = -1;
  int replies_ = -1;
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// The p-th percentile (0..100, nearest rank) of `values` (0 when empty).
double percentile(std::vector<double> values, double p);

}  // namespace perfbench
