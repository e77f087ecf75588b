// Live observability for sweep execution.
//
// The runner reports every finished case through a ProgressSink: what the
// case was, how long its shards took, the runs/sec they achieved, and how
// many invariant checks the safety checker executed.  The sweep's JSON
// manifest records the same runs, compute seconds and checks (runs/sec is
// their ratio), so the live feed and the recorded artifact can never
// disagree.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

namespace dynvote {

/// Telemetry for one completed case.
struct CaseTelemetry {
  std::string label;               // e.g. "ykd changes=6 rate=4"
  std::uint64_t runs = 0;
  double compute_seconds = 0.0;    // summed worker time across shards
  double runs_per_sec = 0.0;
  std::uint64_t invariant_checks = 0;
  double availability_percent = 0.0;
};

class ProgressSink {
 public:
  virtual ~ProgressSink() = default;

  /// Called once per case, after its shards are merged.  `done`/`total`
  /// count cases.  Calls are serialized by the runner (never concurrent)
  /// but may come from worker threads in any case order.
  virtual void case_done(const CaseTelemetry& telemetry, std::size_t done,
                         std::size_t total) = 0;

  /// Called once, after the last case.
  virtual void sweep_done(const std::string& sweep_name, std::size_t cases,
                          double wall_seconds) = 0;
};

/// Discards everything.
class NullProgress final : public ProgressSink {
 public:
  void case_done(const CaseTelemetry&, std::size_t, std::size_t) override {}
  void sweep_done(const std::string&, std::size_t, double) override {}
};

/// One line per case on a stream (stderr by default), so table output on
/// stdout stays machine-readable.
class StreamProgress final : public ProgressSink {
 public:
  explicit StreamProgress(std::ostream& os);
  void case_done(const CaseTelemetry& telemetry, std::size_t done,
                 std::size_t total) override;
  void sweep_done(const std::string& sweep_name, std::size_t cases,
                  double wall_seconds) override;

 private:
  std::ostream& os_;
};

/// The sink benches use when the caller did not supply one: a
/// StreamProgress on stderr, or a NullProgress when DV_PROGRESS=0.
ProgressSink& default_progress_sink();

}  // namespace dynvote
