#include "runner/progress.hpp"

#include <iostream>

#include "sim/table.hpp"
#include "util/env.hpp"

namespace dynvote {

StreamProgress::StreamProgress(std::ostream& os) : os_(os) {}

void StreamProgress::case_done(const CaseTelemetry& telemetry, std::size_t done,
                               std::size_t total) {
  os_ << "[sweep " << done << "/" << total << "] " << telemetry.label << ": "
      << format_double(telemetry.availability_percent) << "% available, "
      << telemetry.runs << " runs in "
      << format_double(telemetry.compute_seconds, 2) << "s ("
      << format_double(telemetry.runs_per_sec, 0) << " runs/s, "
      << telemetry.invariant_checks << " invariant checks)\n";
}

void StreamProgress::sweep_done(const std::string& sweep_name,
                                std::size_t cases, double wall_seconds) {
  os_ << "[sweep] " << sweep_name << ": " << cases << " cases in "
      << format_double(wall_seconds, 2) << "s wall\n";
}

ProgressSink& default_progress_sink() {
  static NullProgress null_sink;
  static StreamProgress stderr_sink(std::cerr);
  if (!env_bool("DV_PROGRESS", true)) return null_sink;
  return stderr_sink;
}

}  // namespace dynvote
