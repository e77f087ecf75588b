// dvperf: the sweep benchmark.
//
//   dvperf --workload <fresh-n64|cascade-n64|models-n16> --seed <n>
//          --seconds <s> --trace <0|1> --reference-dir <dir>
//          [--case-stride <k>] [--record-reference]
//
// Sets up (builds the workload's sweeps from the seed, then runs a warm-up
// sweep), then repeats the workload's run_sweep calls for --seconds (at
// least twice), checking every case's results against the recorded
// reference (seed 0x5eed) or, at any other seed, against the first
// repetition.  Set-up is repeated between repetitions, spread evenly over
// the window, nine times in all.  Every set-up and sweep time is scaled to
// a reference host speed with the host probe (host.cpp), run on the
// sweeps' own cores at case boundaries.
//
// --trace 0 reports the end-to-end metrics: setup_s, sweep_s, cpu_s and
// peak_rss_mb (medians over repetitions, the times scaled; peak RSS is the
// process's).
// --trace 1 spends half of --seconds on the same untraced sweeps for the
// runner metrics, then runs the traced pass (layers.cpp) over a sample of
// the cases and reports the per-layer metrics.  The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; the
// lines before it print every metric by name with its unit.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "runner/artifact.hpp"

namespace {

using perfbench::Clock;
using perfbench::Metric;
using perfbench::seconds_between;
using perfbench::Workload;

constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kMinRepetitions = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = perfbench::kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir;
  std::size_t case_stride = 1;
  bool record_reference = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "dvperf: " << problem << "\n"
            << "usage: dvperf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --reference-dir <dir> [--case-stride <k>] "
               "[--record-reference]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) usage("bad value for " + flag);
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-reference") {
      options.record_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(flag, value);
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--reference-dir") {
      options.reference_dir = value;
    } else if (flag == "--case-stride") {
      options.case_stride = parse_u64(flag, value);
      if (options.case_stride == 0) usage("--case-stride must be positive");
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.reference_dir.empty()) usage("--reference-dir is required");
  if (options.record_reference &&
      (options.seed != perfbench::kReferenceSeed || options.case_stride != 1)) {
    usage("--record-reference needs the reference seed and the full workload");
  }
  return options;
}

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// User + system CPU of the whole process (every thread).
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

/// Peak resident memory of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Compares every case of every repetition against the expected digest:
/// the reference when one was loaded, else the first repetition's.
class ResultCheck {
 public:
  explicit ResultCheck(std::optional<perfbench::Reference> reference)
      : expected_(reference ? std::move(*reference) : perfbench::Reference{}),
        use_reference_(reference.has_value()) {}

  /// `result` is null when the sweep threw: all its cases failed.
  void check(const dynvote::SweepSpec& sweep,
             const dynvote::SweepResult* result) {
    for (std::size_t c = 0; c < sweep.cases.size(); ++c) {
      ++attempted_;
      if (result == nullptr) {
        ++failed_;
        continue;
      }
      const std::string key = perfbench::reference_key(sweep, sweep.cases[c]);
      const std::string digest =
          perfbench::results_digest(result->cases[c].result);
      const auto it = expected_.find(key);
      if (it == expected_.end()) {
        if (use_reference_) {
          ++failed_;
          std::cerr << "perfbench: no reference for [" << key << "]\n";
        } else {
          expected_.emplace(key, digest);
        }
      } else if (it->second != digest) {
        ++failed_;
        std::cerr << "perfbench: [" << key << "] results " << digest
                  << " differ from "
                  << (use_reference_ ? "the reference " : "repetition 1 ")
                  << it->second << '\n';
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  perfbench::Reference expected_;
  bool use_reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The sweeps' progress sink.  Forwards every call to the default sink (the
/// per-case progress log users see) and, at case boundaries at least
/// kProbeSpacing apart, runs the host probe on the core that finished the
/// case while its thread waits.  The runner serializes case_done calls.
class ProbingProgress final : public dynvote::ProgressSink {
 public:
  struct Tally {
    double block_s;   // mean probe block time
    double paused_s;  // time a thread spent waiting for the probe
  };

  explicit ProbingProgress(perfbench::HostProbe& probe)
      : probe_(probe), forward_(dynvote::default_progress_sink()) {}

  void case_done(const dynvote::CaseTelemetry& telemetry, std::size_t done,
                 std::size_t total) override {
    forward_.case_done(telemetry, done, total);
    const auto start = Clock::now();
    if (start - last_probe_ < kProbeSpacing) return;
    blocks_s_.push_back(probe_.measure_here());
    last_probe_ = Clock::now();
    paused_s_ += seconds_between(start, last_probe_);
  }

  void sweep_done(const std::string& sweep_name, std::size_t cases,
                  double wall_seconds) override {
    forward_.sweep_done(sweep_name, cases, wall_seconds);
  }

  /// Begins the tally of one set-up or sweep.
  void start() {
    blocks_s_.clear();
    paused_s_ = 0.0;
    last_probe_ = Clock::now();
  }

  /// Ends it.  One too short to reach a probe is probed once now, after
  /// its timed interval.
  Tally finish() {
    if (blocks_s_.empty()) blocks_s_.push_back(probe_.measure_here());
    double sum = 0.0;
    for (double block_s : blocks_s_) sum += block_s;
    return {sum / static_cast<double>(blocks_s_.size()), paused_s_};
  }

 private:
  static constexpr auto kProbeSpacing = std::chrono::milliseconds(50);

  perfbench::HostProbe& probe_;
  dynvote::ProgressSink& forward_;
  std::vector<double> blocks_s_;
  double paused_s_ = 0.0;
  Clock::time_point last_probe_;
};

/// One repetition of the workload's sweeps.
struct Repetition {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// wall_s and cpu_s scaled to the reference host speed, sweep by sweep.
  double scaled_wall_s = 0.0;
  double scaled_cpu_s = 0.0;
  double compute_s = 0.0;
  double manifest_ms = 0.0;
  double manifest_bytes = 0.0;
  double shards = 0.0;
  double steals = 0.0;
  double cases = 0.0;
};

/// Shortest form that reads back as the same double: every digit measured.
std::string format_number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

std::vector<double> column(const std::vector<Repetition>& reps,
                           double Repetition::*field) {
  std::vector<double> values;
  for (const Repetition& rep : reps) values.push_back(rep.*field);
  return values;
}

int run(Clock::time_point process_start, const Options& options) {
  if (!perfbench::make_workload(options.workload, options.seed, 1)) {
    usage("unknown workload " + options.workload);
  }
  // Forks, so before any sweep starts a thread.
  perfbench::HostProbe probe;

  std::optional<perfbench::Reference> reference;
  const std::string reference_path =
      options.reference_dir + "/" + options.workload + ".tsv";
  if (options.seed == perfbench::kReferenceSeed && !options.record_reference) {
    reference = perfbench::load_reference(reference_path);
    if (!reference) {
      std::cerr << "dvperf: missing reference results " << reference_path
                << '\n';
      return 1;
    }
  }

  // Host speed: host_scale takes from a set-up's or sweep's `seconds` the
  // time its threads waited for the probe (one of `jobs` workers at a
  // time) and returns the factor that scales the rest: the nominal probe
  // block time over the mean block time while it ran.
  ProbingProgress progress(probe);
  std::vector<double> probe_s;
  const auto host_scale = [&](double& seconds, std::size_t jobs) {
    const ProbingProgress::Tally tally = progress.finish();
    seconds -= tally.paused_s / static_cast<double>(jobs);
    probe_s.push_back(tally.block_s);
    return perfbench::HostProbe::kNominalSeconds / tally.block_s;
  };

  // Set-up: build the inputs from the seed and warm up.  The median of
  // kSetupRepeats set-ups is setup_s; the first runs from process start,
  // the others between repetitions, spread over the window so that one
  // moment of host noise does not decide the median.
  std::vector<double> setup_raw_s;
  std::vector<double> setup_s;
  std::optional<Workload> workload;
  const auto set_up = [&](Clock::time_point start) {
    progress.start();
    workload = perfbench::make_workload(options.workload, options.seed,
                                        options.case_stride);
    for (dynvote::SweepSpec& sweep : workload->sweeps) {
      sweep.progress = &progress;
    }
    dynvote::SweepSpec warmup = perfbench::warmup_sweep(*workload);
    warmup.progress = &progress;
    (void)dynvote::run_sweep(warmup);
    double seconds = seconds_between(start, Clock::now());
    const double scale = host_scale(seconds, warmup.jobs);
    setup_raw_s.push_back(seconds);
    setup_s.push_back(seconds * scale);
  };
  set_up(process_start);

  ResultCheck check(std::move(reference));
  std::vector<Repetition> reps;
  std::vector<std::optional<dynvote::SweepResult>> last(workload->sweeps.size());
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const auto timed_start = Clock::now();
  for (;;) {
    const double elapsed = seconds_between(timed_start, Clock::now());
    if (reps.size() >= kMinRepetitions && elapsed >= budget) break;
    if (setup_s.size() < kSetupRepeats &&
        elapsed >= budget * static_cast<double>(setup_s.size()) /
                       kSetupRepeats) {
      set_up(Clock::now());
    }
    Repetition rep;
    for (std::size_t s = 0; s < workload->sweeps.size(); ++s) {
      const dynvote::SweepSpec& sweep = workload->sweeps[s];
      last[s].reset();
      progress.start();
      const double cpu_before = process_cpu_seconds();
      const auto start = Clock::now();
      try {
        last[s] = dynvote::run_sweep(sweep);
      } catch (const std::exception& e) {
        std::cerr << "perfbench: sweep " << sweep.name << " threw: " << e.what()
                  << '\n';
      }
      double wall_s = seconds_between(start, Clock::now());
      const double cpu_s = process_cpu_seconds() - cpu_before;
      const double scale = host_scale(wall_s, sweep.jobs);
      rep.wall_s += wall_s;
      rep.cpu_s += cpu_s;
      rep.scaled_wall_s += wall_s * scale;
      rep.scaled_cpu_s += cpu_s * scale;
      check.check(sweep, last[s] ? &*last[s] : nullptr);
      if (!last[s] || !options.trace) continue;

      for (const dynvote::CaseOutcome& outcome : last[s]->cases) {
        rep.compute_s += outcome.compute_seconds;
        rep.shards += static_cast<double>(outcome.shards);
        rep.steals += static_cast<double>(outcome.steals);
        rep.cases += 1.0;
      }
      // The manifest run_sweep just wrote, rendered and written again to
      // time it alone.
      rep.manifest_bytes +=
          static_cast<double>(dynvote::manifest_json(sweep, *last[s]).size());
      const auto write_start = Clock::now();
      (void)dynvote::write_manifest(sweep, *last[s]);
      rep.manifest_ms += seconds_between(write_start, Clock::now()) * 1e3;
    }
    reps.push_back(rep);
  }
  while (setup_s.size() < kSetupRepeats) set_up(Clock::now());

  if (options.record_reference) {
    if (check.failed() != 0) {
      std::cerr << "dvperf: repetitions disagree; reference not recorded\n";
      return 1;
    }
    std::vector<dynvote::SweepResult> results;
    for (auto& result : last) results.push_back(std::move(*result));
    perfbench::save_reference(reference_path, *workload, results);
    std::cerr << "dvperf: recorded " << reference_path << '\n';
  }

  std::uint64_t attempted = check.attempted();
  std::uint64_t failed = check.failed();
  std::vector<Metric> metrics;
  const double workers = static_cast<double>(workload->jobs);
  if (!options.trace) {
    metrics.push_back({"setup_s", perfbench::median(setup_s), "s"});
    metrics.push_back(
        {"sweep_s",
         perfbench::median(column(reps, &Repetition::scaled_wall_s)), "s"});
    metrics.push_back(
        {"cpu_s", perfbench::median(column(reps, &Repetition::scaled_cpu_s)),
         "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  } else {
    metrics.push_back(
        {"host.probe_ms", perfbench::median(probe_s) * 1e3, "ms"});
    std::vector<double> outside, idle;
    for (const Repetition& rep : reps) {
      outside.push_back(workers * rep.wall_s - rep.compute_s);
      idle.push_back(1.0 - rep.compute_s / (workers * rep.wall_s));
    }
    const Repetition& final_rep = reps.back();
    metrics.push_back({"runner.compute_s",
                       perfbench::median(column(reps, &Repetition::compute_s)),
                       "s"});
    metrics.push_back({"runner.outside_s", perfbench::median(outside), "s"});
    metrics.push_back({"runner.idle_frac", perfbench::median(idle), "ratio"});
    metrics.push_back(
        {"runner.manifest_ms",
         perfbench::median(column(reps, &Repetition::manifest_ms)), "ms"});
    metrics.push_back(
        {"runner.manifest_bytes", final_rep.manifest_bytes, "bytes"});
    metrics.push_back({"runner.shards_per_case",
                       final_rep.cases > 0 ? final_rep.shards / final_rep.cases
                                           : 0.0,
                       "count"});
    metrics.push_back({"runner.steals",
                       final_rep.cases > 0 ? final_rep.steals / final_rep.cases
                                           : 0.0,
                       "count"});

    std::vector<perfbench::SampleCase> sample;
    std::size_t index = 0;
    for (std::size_t s = 0; s < workload->sweeps.size(); ++s) {
      for (std::size_t c = 0; c < workload->sweeps[s].cases.size(); ++c) {
        if (index++ % workload->sample_stride != 0 || !last[s]) continue;
        sample.push_back({&workload->sweeps[s].cases[c], &last[s]->cases[c]});
      }
    }
    std::vector<std::string> algorithms;
    for (dynvote::AlgorithmKind kind : dynvote::all_algorithm_kinds()) {
      algorithms.emplace_back(dynvote::to_string(kind));
    }
    perfbench::LayerReport layers =
        perfbench::measure_layers(sample, algorithms);
    attempted += layers.attempted;
    failed += layers.failed;
    metrics.insert(metrics.end(), layers.metrics.begin(), layers.metrics.end());
    std::cout << "traced pass: " << sample.size()
              << " sampled cases (case stride " << workload->sample_stride
              << "), " << layers.attempted << " case passes\n";
  }

  std::uint64_t runs_per_case = 0;
  if (!workload->sweeps.front().cases.empty()) {
    runs_per_case = workload->sweeps.front().cases.front().spec.runs;
  }
  std::cout << "workload " << workload->name << ": seed " << options.seed
            << ", " << workload->jobs << " worker thread(s), "
            << runs_per_case << " runs per case, " << reps.size()
            << " repetition(s), results checked against "
            << (options.seed == perfbench::kReferenceSeed &&
                        !options.record_reference
                    ? "the recorded reference"
                    : "the first repetition")
            << "\n";
  std::cout << "sweep seconds per repetition:";
  for (const Repetition& rep : reps) std::cout << ' ' << rep.wall_s;
  std::cout << "\n  scaled to the reference host speed:";
  for (const Repetition& rep : reps) std::cout << ' ' << rep.scaled_wall_s;
  std::cout << "\nCPU seconds per repetition:";
  for (const Repetition& rep : reps) std::cout << ' ' << rep.cpu_s;
  std::cout << "\n  scaled to the reference host speed:";
  for (const Repetition& rep : reps) std::cout << ' ' << rep.scaled_cpu_s;
  std::cout << "\nset-up seconds:";
  for (double s : setup_raw_s) std::cout << ' ' << s;
  std::cout << "\n  scaled to the reference host speed:";
  for (double s : setup_s) std::cout << ' ' << s;
  std::cout << "\nhost probe ms (nominal "
            << perfbench::HostProbe::kNominalSeconds * 1e3 << "), median "
            << perfbench::median(probe_s) * 1e3 << ", range "
            << *std::min_element(probe_s.begin(), probe_s.end()) * 1e3
            << " to "
            << *std::max_element(probe_s.begin(), probe_s.end()) * 1e3;
  std::cout << "\nfail_frac = "
            << format_number(attempted == 0 ? 0.0
                                            : static_cast<double>(failed) /
                                                  static_cast<double>(attempted))
            << " ratio (" << failed << " of " << attempted
            << " cases failed)\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    if (!std::isfinite(metric.value)) {
      std::cerr << "dvperf: metric " << metric.name << " is not finite\n";
      return 1;
    }
    std::cout << metric.name << " = " << format_number(metric.value) << ' '
              << metric.unit << '\n';
    json << (i == 0 ? "" : ", ") << '"' << metric.name
         << "\": {\"value\": " << format_number(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Options options = parse_options(argc, argv);
  // Caught here so that the stack unwinds and the host probe's child
  // process is ended and waited for on every way out.
  try {
    return run(process_start, options);
  } catch (const std::exception& e) {
    std::cerr << "dvperf: " << e.what() << '\n';
    return 1;
  }
}
