// Trace replay: a recorded fault schedule driven through the simulator.
//
// The schedule is a JSON document ("dynvote.trace.v1") so real-world
// outage traces can be replayed through all six algorithms:
//
//   {
//     "schema": "dynvote.trace.v1",
//     "processes": 8,
//     "events": [
//       {"at": 3,  "kind": "partition", "moved": [2, 5]},
//       {"at": 9,  "kind": "merge",     "of": [0, 2]},
//       {"at": 14, "kind": "crash",     "process": 7},
//       {"at": 20, "kind": "recovery",  "process": 7}
//     ]
//   }
//
// `at` is the absolute injection-phase round count at which the event
// fires; timestamps must be strictly increasing.  Events address processes,
// never component indices (component numbering is an internal detail that
// shifts as the topology evolves): a partition splits the listed processes
// away from their current component, a merge unifies the components
// containing the two named processes.
//
// Decoding is strict in the util/codec tradition: a truncated document,
// out-of-order timestamps, an unknown event kind, a process id >= N, or any
// structural surprise throws DecodeError at model construction -- before
// any simulation state exists, let alone mutates.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/fault_model.hpp"

namespace dynvote {

inline constexpr std::string_view kTraceSchema = "dynvote.trace.v1";

/// One decoded, validated schedule entry.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kPartition = 0,
    kMerge = 1,
    kCrash = 2,
    kRecovery = 3,
  };

  std::uint64_t at = 0;
  Kind kind = Kind::kPartition;
  /// Partition: the processes that split away.
  ProcessSet moved;
  /// Merge: processes naming the two components to unify.
  ProcessId merge_a = kInvalidProcess;
  ProcessId merge_b = kInvalidProcess;
  /// Crash/recovery: the affected process.
  ProcessId process = kInvalidProcess;
};

/// Parse and fully validate a dynvote.trace.v1 document for a universe of
/// `processes`.  Throws DecodeError on malformed JSON, a schema or universe
/// mismatch, out-of-order timestamps, unknown kinds, or out-of-range ids.
std::vector<TraceEvent> parse_trace(std::string_view json,
                                    std::size_t processes);

/// Replays a decoded trace.  Exhausts once every event has fired; the
/// driver then runs straight to stabilization.  Draws no randomness.
class TraceFaultModel final : public FaultModel {
 public:
  /// Throws DecodeError (via parse_trace) before any state is built.
  TraceFaultModel(std::string_view trace_json, std::size_t processes);

  std::size_t next_gap() override;
  void apply_next(Gcs& gcs) override;
  bool exhausted() const override { return cursor_ == events_.size(); }

 private:
  std::vector<TraceEvent> events_;
  std::size_t cursor_ = 0;
  std::uint64_t clock_ = 0;
};

/// Render a schedule as a dynvote.trace.v1 document (the inverse of
/// parse_trace); the property harness uses this to synthesize feasible
/// random traces from recorded schedules.
std::string trace_to_json(const std::vector<TraceEvent>& events,
                          std::size_t processes);

}  // namespace dynvote
