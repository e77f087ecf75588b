// Scenario explorer: run any (algorithm, processes, changes, rate, mode)
// case from the command line and print the availability and ambiguity
// statistics -- a miniature version of the paper's whole measurement rig,
// useful for poking at regimes the figures do not cover.
//
// Examples:
//   scenario_explorer --algorithm ykd --changes 12 --rate 2 --runs 500
//   scenario_explorer --algorithm mr1p --mode cascading --changes 6 --rate 1
//   scenario_explorer --all --changes 6 --rate 4        (compare everyone)
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "runner/sweep.hpp"
#include "sim/table.hpp"
#include "util/env.hpp"

using namespace dynvote;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --algorithm NAME   ykd | ykd-unoptimized | dfls | 1-pending |\n"
      << "                     mr1p | simple-majority   (default: ykd)\n"
      << "  --all              run every algorithm on the same schedule\n"
      << "  --processes N      system size (default 64)\n"
      << "  --changes N        connectivity changes per run (default 6)\n"
      << "  --rate R           mean message rounds between changes (default 4)\n"
      << "  --runs N           runs per case (default 200)\n"
      << "  --mode M           fresh | cascading (default fresh)\n"
      << "  --seed N           base seed (default 0x5eed)\n"
      << "  --crash-fraction F share of faults that are process\n"
      << "                     crashes/recoveries (default 0)\n"
      << "  --jobs N           worker threads (default: DV_JOBS, else all\n"
      << "                     hardware threads)\n";
  std::exit(2);
}

std::string row_label(const CaseResult& r, AlgorithmKind kind) {
  (void)r;
  return std::string(to_string(kind));
}

}  // namespace

int main(int argc, char** argv) {
  CaseSpec spec;
  spec.runs = 200;
  bool run_all = false;
  std::size_t jobs = 0;  // 0 = DV_JOBS / hardware default

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Numeric values must be wholly a number of the flag's kind: "1e3",
    // "-1" or "abc" for --runs is a usage error, not 1, 2^64-1 or 0.
    const auto next_u64 = [&]() -> std::uint64_t {
      const auto value = parse_u64(next());
      if (!value.has_value()) usage(argv[0]);
      return *value;
    };
    const auto next_double = [&]() -> double {
      const auto value = parse_double(next());
      if (!value.has_value()) usage(argv[0]);
      return *value;
    };
    if (arg == "--algorithm") {
      const auto kind = algorithm_kind_from_string(next());
      if (!kind.has_value()) usage(argv[0]);
      spec.algorithm = *kind;
    } else if (arg == "--all") {
      run_all = true;
    } else if (arg == "--processes") {
      spec.processes = next_u64();
    } else if (arg == "--changes") {
      spec.changes = next_u64();
    } else if (arg == "--rate") {
      spec.mean_rounds = next_double();
    } else if (arg == "--runs") {
      spec.runs = next_u64();
    } else if (arg == "--mode") {
      const std::string mode = next();
      if (mode == "fresh") {
        spec.mode = RunMode::kFreshStart;
      } else if (mode == "cascading") {
        spec.mode = RunMode::kCascading;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--seed") {
      spec.base_seed = next_u64();
    } else if (arg == "--crash-fraction") {
      spec.crash_fraction = next_double();
    } else if (arg == "--jobs") {
      jobs = next_u64();
    } else {
      usage(argv[0]);
    }
  }

  std::vector<AlgorithmKind> kinds =
      run_all ? all_algorithm_kinds() : std::vector<AlgorithmKind>{spec.algorithm};

  SweepSpec sweep;
  sweep.name = "scenario_explorer";
  sweep.jobs = jobs;
  for (AlgorithmKind kind : kinds) {
    SweepCase one;
    one.algorithm = to_string(kind);
    one.spec = spec;
    one.spec.algorithm = kind;
    sweep.cases.push_back(std::move(one));
  }
  const SweepResult swept = run_sweep(sweep);

  std::cout << "processes=" << spec.processes << " changes=" << spec.changes
            << " rate=" << spec.mean_rounds << " runs=" << spec.runs
            << " mode=" << to_string(spec.mode) << " jobs=" << swept.jobs
            << "\n\n";

  TextTable table({"algorithm", "availability %", "in-run avail %",
                   "runs w/ pending %", "max pending", "avg rounds/run"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const CaseResult& result = swept.cases[k].result;
    table.add_row(
        {row_label(result, kinds[k]),
         format_double(result.availability_percent()),
         format_double(result.in_run_availability_percent()),
         format_double(result.stable.percent_nonzero()),
         std::to_string(result.stable.max_observed),
         format_double(static_cast<double>(result.total_rounds) /
                           static_cast<double>(result.runs),
                       1)});
  }
  table.print(std::cout);
  if (!swept.artifact_path.empty()) {
    std::cout << "(manifest written to " << swept.artifact_path << ")\n";
  }
  return 0;
}
