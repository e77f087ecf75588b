// Workload definitions, result digests and the reference file.
//
// Why these three workloads (see README.md for the per-layer map):
//  * fresh-n64   -- the study users run (thesis Figs 4-1..4-3) on one
//                   worker: per-view exchange evaluation in core and
//                   per-delivery dispatch in gcs dominate, and every run
//                   builds a new world.
//  * cascade-n64 -- the same grid in cascading mode (Figs 4-4..4-6) on
//                   every worker: one long-lived world per case, parallel
//                   only through the runner's scout replay, snapshot
//                   checkpoints and restored shards.
//  * models-n16  -- all six algorithms under four fault models at N=16:
//                   little core work, so per-case fixed costs, the
//                   invariant checker and the crash/sleep/wake view paths
//                   dominate; the only workload on parallel fresh-start
//                   chunk claiming.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "util/codec.hpp"

namespace perfbench {

namespace {

using dynvote::AlgorithmKind;
using dynvote::RunMode;
using dynvote::SweepCase;
using dynvote::SweepSpec;

/// Worker threads for the parallel workloads: every core, capped at the
/// four the workloads were sized on, so the work per thread stays put on
/// a larger host.
std::size_t parallel_jobs() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hardware == 0 ? 1 : hardware, 1, 4);
}

/// The five algorithms the availability figures plot.
std::vector<AlgorithmKind> plotted_algorithms() {
  return {AlgorithmKind::kYkd, AlgorithmKind::kDfls, AlgorithmKind::kOnePending,
          AlgorithmKind::kMr1p, AlgorithmKind::kSimpleMajority};
}

/// Thesis grid (five algorithms x rates 0..12) at N=64, one sweep per
/// change count, as the figure binaries run it, appended to `sweeps`.
/// `suffix` tells apart the sweep names of grids at different seeds.
void add_thesis_grid(std::vector<SweepSpec>& sweeps,
                     const std::string& workload, RunMode mode,
                     std::uint64_t runs, std::uint64_t seed,
                     const std::string& suffix) {
  for (std::size_t changes : dynvote::standard_change_counts()) {
    SweepSpec sweep;
    sweep.name =
        "perfbench_" + workload + "_c" + std::to_string(changes) + suffix;
    sweep.cases = dynvote::availability_grid(
        plotted_algorithms(), dynvote::standard_rate_sweep(), changes, mode,
        runs, seed, 64);
    sweeps.push_back(std::move(sweep));
  }
}

/// Grids cascade-n64 runs per repetition.  A cascading case follows one
/// world's trajectory, and the algorithms of a grid share the seed's fault
/// schedule, so their heavy cases move together: one grid's work moved
/// with the seed by up to 40% (total deliveries 50M to 77M over five
/// seeds).  Six grids at different seeds average that down.
constexpr std::uint64_t kCascadeGrids = 6;

/// The grid seeds cascade-n64 draws from: 0x5eed + i * 0x9e3779b97f4a7c15
/// for i < kCascadeSeedPool, each of which ran the whole cascading grid
/// without an invariant violation.  Some seeds do not: at 2004 +
/// 4 * 0x9e3779b97f4a7c15, ykd and dfls p=64 c=12 r=5 break the checker's
/// quorum chain ("temporally disjoint primaries"), about one grid seed in
/// thirty, and a benchmark workload must not fail.
constexpr std::uint64_t kCascadeSeedPool = 36;

std::uint64_t cascade_grid_seed(std::uint64_t index) {
  return kReferenceSeed + index % kCascadeSeedPool * 0x9e3779b97f4a7c15ull;
}

/// All six algorithms x {geometric, geometric with 25% crashes, sleepy,
/// repairable} x rates {0, 2, 4, 8, 12} x 6 changes at N=16, fresh start.
SweepSpec fault_model_grid(std::uint64_t runs, std::uint64_t seed) {
  struct Model {
    dynvote::FaultModelKind kind;
    double crash_fraction;
  };
  const Model models[] = {
      {dynvote::FaultModelKind::kGeometric, 0.0},
      {dynvote::FaultModelKind::kGeometric, 0.25},
      {dynvote::FaultModelKind::kSleepy, 0.0},
      {dynvote::FaultModelKind::kRepairable, 0.0},
  };
  SweepSpec sweep;
  sweep.name = "perfbench_models-n16";
  for (const Model& model : models) {
    for (AlgorithmKind kind : dynvote::all_algorithm_kinds()) {
      for (double rate : {0.0, 2.0, 4.0, 8.0, 12.0}) {
        SweepCase c;
        c.algorithm = std::string(dynvote::to_string(kind));
        c.spec.algorithm = kind;
        c.spec.processes = 16;
        c.spec.changes = 6;
        c.spec.mean_rounds = rate;
        c.spec.crash_fraction = model.crash_fraction;
        c.spec.fault_model.kind = model.kind;
        c.spec.runs = runs;
        c.spec.mode = RunMode::kFreshStart;
        c.spec.base_seed = seed;
        sweep.cases.push_back(std::move(c));
      }
    }
  }
  return sweep;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, '\t')) fields.push_back(field);
  return fields;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed,
                                      std::size_t case_stride) {
  Workload w;
  w.name = name;
  // Runs per case are the smallest that keep each workload's mechanism
  // alive: cascading cases need more than the runner's 32-run shard floor
  // to be split through scout checkpoints; fresh-start N=64 runs are long
  // enough at 20; N=16 runs are cheap, and the workload is lengthened by
  // grid cells rather than runs so per-case costs keep their weight.
  if (name == "fresh-n64") {
    add_thesis_grid(w.sweeps, name, RunMode::kFreshStart, 20, seed, "");
    w.jobs = 1;
    w.sample_stride = 3;
  } else if (name == "cascade-n64") {
    // --seed picks kCascadeGrids consecutive pool seeds; at 0x5eed the
    // first is 0x5eed itself, the figures' grid.
    const std::uint64_t first = (seed - kReferenceSeed) % kCascadeSeedPool;
    for (std::uint64_t g = 0; g < kCascadeGrids; ++g) {
      add_thesis_grid(w.sweeps, name, RunMode::kCascading, 64,
                      cascade_grid_seed(first + g),
                      g == 0 ? "" : "_g" + std::to_string(g));
    }
    w.jobs = parallel_jobs();
    w.sample_stride = 7 * kCascadeGrids;
  } else if (name == "models-n16") {
    w.sweeps = {fault_model_grid(40, seed)};
    w.jobs = parallel_jobs();
    w.sample_stride = 2;
  } else {
    return std::nullopt;
  }
  for (SweepSpec& sweep : w.sweeps) {
    sweep.jobs = w.jobs;
    if (case_stride > 1) {
      std::vector<SweepCase> kept;
      for (std::size_t i = 0; i < sweep.cases.size(); i += case_stride) {
        kept.push_back(sweep.cases[i]);
      }
      sweep.cases = std::move(kept);
    }
  }
  return w;
}

SweepSpec warmup_sweep(const Workload& workload) {
  SweepSpec warmup;
  // Serial, so set-up time does not hinge on how threads were scheduled.
  warmup.jobs = 1;
  // The last (highest-rate) case of each algorithm in the first sweep, at
  // the reference seed: a case's cost depends on its schedule, and set-up
  // time should not depend on --seed.
  const std::vector<SweepCase>& cases = workload.sweeps.front().cases;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (i + 1 == cases.size() || cases[i + 1].algorithm != cases[i].algorithm) {
      warmup.cases.push_back(cases[i]);
      warmup.cases.back().spec.base_seed = kReferenceSeed;
    }
  }
  return warmup;
}

std::string results_digest(const dynvote::CaseResult& result) {
  dynvote::CaseResult copy = result;
  copy.wire = dynvote::WireStats{};
  dynvote::Encoder enc;
  copy.encode_body(enc);
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::byte b : enc.bytes()) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

std::string reference_key(const SweepSpec& sweep, const SweepCase& sweep_case) {
  return sweep.name + "\t" + dynvote::case_label(sweep_case);
}

std::optional<Reference> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Reference reference;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // sweep, label, runs, successes, total_rounds, total_deliveries,
    // invariant_checks, digest -- the middle columns are for readers; the
    // digest covers them.
    const std::vector<std::string> fields = split_tabs(line);
    if (fields.size() != 8 || fields[7].size() != 16) {
      throw std::runtime_error("malformed reference line in " + path + ": " +
                               line);
    }
    reference[fields[0] + "\t" + fields[1]] = fields[7];
  }
  return reference;
}

void save_reference(const std::string& path, const Workload& workload,
                    const std::vector<dynvote::SweepResult>& results) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# perfbench reference results for workload " << workload.name
      << " at seed " << kReferenceSeed << "\n"
      << "# sweep\tcase\truns\tsuccesses\ttotal_rounds\ttotal_deliveries"
         "\tinvariant_checks\tdigest\n";
  for (std::size_t s = 0; s < workload.sweeps.size(); ++s) {
    const SweepSpec& sweep = workload.sweeps[s];
    for (std::size_t c = 0; c < sweep.cases.size(); ++c) {
      const dynvote::CaseResult& r = results[s].cases[c].result;
      out << reference_key(sweep, sweep.cases[c]) << '\t' << r.runs << '\t'
          << r.successes << '\t' << r.total_rounds << '\t'
          << r.total_deliveries << '\t' << r.invariant_checks << '\t'
          << results_digest(r) << '\n';
    }
  }
  if (!out) throw std::runtime_error("failed writing " + path);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // nearest rank: ceil
  index = std::clamp<std::size_t>(index, 1, values.size());
  return values[index - 1];
}

}  // namespace perfbench
