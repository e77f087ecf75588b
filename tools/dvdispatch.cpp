// dvdispatch: run availability sweeps on the multi-host fabric.
//
//   dvdispatch --coordinator [sweep options] [--port N] [--local-jobs N]
//              [--lease-ms N]
//   dvdispatch --worker HOST:PORT [--slots N] [--die-after-units N]
//   dvdispatch --local [sweep options]
//
// The coordinator listens on --port (default DV_FABRIC_PORT, else 7717),
// executes the sweep with --local-jobs threads of its own, and leases work
// units to any worker that connects; --local runs the identical sweep
// entirely in-process through the ordinary runner.  Because shard merge is
// bit-identical, both paths stamp the same results_fingerprint into their
// manifests -- CI starts a dispatch-only coordinator plus workers (one of
// which dies holding leases), runs --local, and requires `bench_diff` to
// find the two manifests identical.  Every role must come from the same
// build: peers of different wire versions refuse each other's frames.
//
// Sweep options (same sweep on every path):
//   --name NAME        artifact stem (default "fabric_sweep")
//   --algos a,b,...    algorithms (default: all six)
//   --rates r1,r2,...  mean rounds between changes (default "2,6,10")
//   --changes N        connectivity changes per run (default 6)
//   --processes N      process count (default 64)
//   --runs N           runs per case (default DV_RUNS, else 200)
//   --seed N           base seed (default DV_SEED, else 0x5eed)
//   --mode M           fresh | cascading | both (default both)
//   --min-shard-runs N smallest shard (default auto)
//   --model M          fault model: geometric | sleepy | repairable | trace
//                      (default geometric)
//   --wake-bias X      sleepy: probability a change is a wake (default 0.5)
//   --repair-capacity N  repairable: concurrent repair slots (default 1)
//   --repair-mean X    repairable: mean repair service rounds (default 8)
//   --trace FILE       trace: JSON schedule document (implies --model trace)
//   --trace-out FILE   record a dynvote.events.v1 protocol trace to FILE
//                      (coordinator/local roles; equivalent to DV_TRACE=1
//                      with DV_TRACE_OUT=FILE -- analyze with dvtrace)
//
// Numeric values are parsed strictly: a value that is not wholly a number
// the option can hold ("abc", "-5", "1e3", "2,x" in a list) is a usage
// error.
//
// Exit codes: 0 success/clean shutdown, 2 usage or connection failure or
// a failed sweep (a unit that throws, on the coordinator, a worker or
// --local, fails the sweep with its message), 3 worker died via
// --die-after-units (a test hook, not an error).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fabric/coordinator.hpp"
#include "fabric/worker.hpp"
#include "runner/artifact.hpp"
#include "runner/sweep.hpp"
#include "util/env.hpp"

namespace {

using namespace dynvote;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --coordinator|--worker HOST:PORT|--local [options]\n"
               "see the header of tools/dvdispatch.cpp for the full list\n";
  return 2;
}

std::vector<std::string> split_commas(const std::string& value) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    if (comma == std::string::npos) {
      parts.push_back(value.substr(begin));
      break;
    }
    parts.push_back(value.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return parts;
}

/// Parse a numeric option's value into `out`; false (after naming the
/// option and the bad value) when the value is missing or not a whole
/// number `out` can hold.
template <typename Unsigned>
bool read_uint(const std::string& option, const char* text, Unsigned& out) {
  if (text == nullptr) return false;
  const std::optional<std::uint64_t> value = parse_u64(text);
  if (!value.has_value() || *value > std::numeric_limits<Unsigned>::max()) {
    std::cerr << "dvdispatch: " << option << " needs a whole number up to "
              << std::numeric_limits<Unsigned>::max() << ", got '" << text
              << "'\n";
    return false;
  }
  out = static_cast<Unsigned>(*value);
  return true;
}

bool read_double(const std::string& option, const char* text, double& out) {
  if (text == nullptr) return false;
  const std::optional<double> value = parse_double(text);
  if (!value.has_value()) {
    std::cerr << "dvdispatch: " << option << " needs a finite number, got '"
              << text << "'\n";
    return false;
  }
  out = *value;
  return true;
}

struct Cli {
  enum class Role { kNone, kCoordinator, kWorker, kLocal } role = Role::kNone;
  std::string worker_target;
  std::uint16_t port = 0;
  std::uint64_t local_jobs = fabric::CoordinatorOptions::kAutoLocalJobs;
  std::uint64_t lease_ms = 0;
  std::uint64_t slots = 0;
  std::uint64_t die_after_units = 0;

  std::string name = "fabric_sweep";
  std::vector<AlgorithmKind> algorithms;
  std::vector<double> rates = {2.0, 6.0, 10.0};
  std::size_t changes = 6;
  std::size_t processes = 64;
  std::uint64_t runs = 0;
  std::uint64_t seed = 0;
  bool fresh = true;
  bool cascading = true;
  std::uint64_t min_shard_runs = 0;
  FaultModelParams fault_model;
  std::string trace_out;
};

bool parse_cli(int argc, char** argv, Cli& cli) {
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) return nullptr;
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--coordinator") {
      cli.role = Cli::Role::kCoordinator;
    } else if (arg == "--local") {
      cli.role = Cli::Role::kLocal;
    } else if (arg == "--worker") {
      if ((value = need_value(i)) == nullptr) return false;
      cli.role = Cli::Role::kWorker;
      cli.worker_target = value;
    } else if (arg == "--port") {
      if (!read_uint(arg, need_value(i), cli.port)) return false;
    } else if (arg == "--local-jobs") {
      if (!read_uint(arg, need_value(i), cli.local_jobs)) return false;
    } else if (arg == "--lease-ms") {
      if (!read_uint(arg, need_value(i), cli.lease_ms)) return false;
    } else if (arg == "--slots") {
      if (!read_uint(arg, need_value(i), cli.slots)) return false;
    } else if (arg == "--die-after-units") {
      if (!read_uint(arg, need_value(i), cli.die_after_units)) return false;
    } else if (arg == "--name") {
      if ((value = need_value(i)) == nullptr) return false;
      cli.name = value;
    } else if (arg == "--algos") {
      if ((value = need_value(i)) == nullptr) return false;
      for (const std::string& part : split_commas(value)) {
        const auto kind = algorithm_kind_from_string(part);
        if (!kind.has_value()) {
          std::cerr << "dvdispatch: unknown algorithm '" << part << "'\n";
          return false;
        }
        cli.algorithms.push_back(*kind);
      }
    } else if (arg == "--rates") {
      if ((value = need_value(i)) == nullptr) return false;
      cli.rates.clear();
      for (const std::string& part : split_commas(value)) {
        if (!read_double(arg, part.c_str(), cli.rates.emplace_back())) {
          return false;
        }
      }
    } else if (arg == "--changes") {
      if (!read_uint(arg, need_value(i), cli.changes)) return false;
    } else if (arg == "--processes") {
      if (!read_uint(arg, need_value(i), cli.processes)) return false;
    } else if (arg == "--runs") {
      if (!read_uint(arg, need_value(i), cli.runs)) return false;
    } else if (arg == "--seed") {
      if (!read_uint(arg, need_value(i), cli.seed)) return false;
    } else if (arg == "--mode") {
      if ((value = need_value(i)) == nullptr) return false;
      const std::string mode = value;
      cli.fresh = mode == "fresh" || mode == "both";
      cli.cascading = mode == "cascading" || mode == "both";
      if (!cli.fresh && !cli.cascading) {
        std::cerr << "dvdispatch: unknown mode '" << mode << "'\n";
        return false;
      }
    } else if (arg == "--min-shard-runs") {
      if (!read_uint(arg, need_value(i), cli.min_shard_runs)) return false;
    } else if (arg == "--model") {
      if ((value = need_value(i)) == nullptr) return false;
      const auto kind = fault_model_kind_from_string(value);
      if (!kind.has_value()) {
        std::cerr << "dvdispatch: unknown fault model '" << value << "'\n";
        return false;
      }
      cli.fault_model.kind = *kind;
    } else if (arg == "--wake-bias") {
      if (!read_double(arg, need_value(i), cli.fault_model.wake_bias)) {
        return false;
      }
    } else if (arg == "--repair-capacity") {
      if (!read_uint(arg, need_value(i), cli.fault_model.repair_capacity)) {
        return false;
      }
    } else if (arg == "--repair-mean") {
      if (!read_double(arg, need_value(i),
                       cli.fault_model.repair_mean_rounds)) {
        return false;
      }
    } else if (arg == "--trace") {
      if ((value = need_value(i)) == nullptr) return false;
      std::ifstream in(value, std::ios::binary);
      if (!in) {
        std::cerr << "dvdispatch: cannot read trace file '" << value << "'\n";
        return false;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      cli.fault_model.kind = FaultModelKind::kTrace;
      cli.fault_model.trace_json = buf.str();
    } else if (arg == "--trace-out") {
      if ((value = need_value(i)) == nullptr) return false;
      cli.trace_out = value;
    } else {
      std::cerr << "dvdispatch: unknown option '" << arg << "'\n";
      return false;
    }
  }
  return cli.role != Cli::Role::kNone;
}

SweepSpec build_spec(const Cli& cli) {
  SweepSpec spec;
  spec.name = cli.name;
  spec.min_shard_runs = cli.min_shard_runs;
  const std::vector<AlgorithmKind> algorithms =
      cli.algorithms.empty() ? all_algorithm_kinds() : cli.algorithms;
  const std::uint64_t runs = cli.runs != 0 ? cli.runs : runs_from_env(200);
  const std::uint64_t seed = cli.seed != 0 ? cli.seed : seed_from_env(0x5eed);
  if (cli.fresh) {
    std::vector<SweepCase> grid =
        availability_grid(algorithms, cli.rates, cli.changes,
                          RunMode::kFreshStart, runs, seed, cli.processes);
    spec.cases.insert(spec.cases.end(), grid.begin(), grid.end());
  }
  if (cli.cascading) {
    std::vector<SweepCase> grid =
        availability_grid(algorithms, cli.rates, cli.changes,
                          RunMode::kCascading, runs, seed, cli.processes);
    spec.cases.insert(spec.cases.end(), grid.begin(), grid.end());
  }
  // The grid builder knows nothing about fault models; stamping the params
  // afterwards keeps geometric sweeps byte-identical to pre-model builds.
  for (SweepCase& c : spec.cases) c.spec.fault_model = cli.fault_model;
  return spec;
}

void report(const SweepSpec& spec, const SweepResult& result) {
  std::cout << "sweep '" << spec.name << "': " << result.cases.size()
            << " cases in " << result.wall_seconds << "s\n";
  std::cout << "results_fingerprint " << results_fingerprint(spec, result)
            << "\n";
  if (!result.artifact_path.empty()) {
    std::cout << "manifest " << result.artifact_path << "\n";
  }
  if (!result.trace_path.empty()) {
    std::cout << "trace " << result.trace_path << "\n";
  }
  if (result.fabric.used) {
    std::cout << "fabric: " << result.fabric.units_issued << " units issued, "
              << result.fabric.units_reissued << " re-issued, "
              << result.fabric.duplicate_results << " duplicates dropped, "
              << result.fabric.workers_connected << " workers ("
              << result.fabric.workers_died << " died)\n";
  }
}

/// --trace-out is sugar for the environment knobs the sweep runner and
/// coordinator already honor, so one switch arms both code paths.
void apply_trace_out(const Cli& cli) {
  if (cli.trace_out.empty()) return;
  ::setenv("DV_TRACE", "1", 1);
  ::setenv("DV_TRACE_OUT", cli.trace_out.c_str(), 1);
}

int run_coordinator(const Cli& cli) {
  fabric::CoordinatorOptions options;
  options.port = cli.port != 0
                     ? cli.port
                     : static_cast<std::uint16_t>(
                           env_u64("DV_FABRIC_PORT", 7717));
  options.local_jobs = cli.local_jobs;
  options.lease_ms = cli.lease_ms;
  apply_trace_out(cli);
  const SweepSpec spec = build_spec(cli);
  fabric::Coordinator coordinator(spec, options);
  std::cerr << "dvdispatch: coordinating '" << spec.name << "' ("
            << spec.cases.size() << " cases) on port " << coordinator.port()
            << "\n";
  const SweepResult result = coordinator.run();
  report(spec, result);
  return 0;
}

int run_worker_role(const Cli& cli) {
  fabric::WorkerOptions options;
  const std::size_t colon = cli.worker_target.rfind(':');
  if (colon == std::string::npos ||
      !read_uint("--worker", cli.worker_target.c_str() + colon + 1,
                 options.port)) {
    std::cerr << "dvdispatch: --worker expects HOST:PORT\n";
    return 2;
  }
  options.host = cli.worker_target.substr(0, colon);
  if (options.port == 0) {
    options.port =
        static_cast<std::uint16_t>(env_u64("DV_FABRIC_PORT", 7717));
  }
  options.slots = cli.slots;
  options.die_after_units = cli.die_after_units;
  const fabric::WorkerExit exit_code = fabric::run_worker(options);
  std::cerr << "dvdispatch: worker exit: " << fabric::to_string(exit_code)
            << "\n";
  switch (exit_code) {
    case fabric::WorkerExit::kShutdown:
    case fabric::WorkerExit::kStopped:
      return 0;
    case fabric::WorkerExit::kDied:
      return 3;
    case fabric::WorkerExit::kConnectFailed:
      return 2;
  }
  return 2;
}

int run_local(const Cli& cli) {
  apply_trace_out(cli);
  const SweepSpec spec = build_spec(cli);
  const SweepResult result = run_sweep(spec);
  report(spec, result);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, cli)) return usage(argv[0]);
  try {
    switch (cli.role) {
      case Cli::Role::kCoordinator: return run_coordinator(cli);
      case Cli::Role::kWorker: return run_worker_role(cli);
      case Cli::Role::kLocal: return run_local(cli);
      case Cli::Role::kNone: break;
    }
  } catch (const std::exception& e) {
    std::cerr << "dvdispatch: " << e.what() << "\n";
    return 2;
  }
  return usage(argv[0]);
}
