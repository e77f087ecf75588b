// The multi-host sweep fabric's wire protocol ("dynvote.fabric.v1").
//
// A coordinator owns a sweep and hands (snapshot, first_run, count) work
// units to worker processes over TCP; workers stream back shard results
// that merge bit-identically into the same manifest a single-host run
// writes.  Every message is one *frame*: a length-prefixed payload encoded
// with util/codec.hpp behind a tiny versioned envelope:
//
//   varint  envelope version (kFrameVersion; fields added later than v1
//           are gated on this in decode, so mixed-build clusters work)
//   u8      frame type
//   ...     frame body
//
// Frame types:
//   hello      both directions, first frame on a connection.  The worker
//              announces its capabilities (slots, build); the coordinator
//              replies with the sweep's case table and timing contract
//              (lease deadline, wanted heartbeat cadence).
//   lease      coordinator -> worker: one work unit.  A cascading unit
//              may carry a snapshot that seeds its world; without one it
//              starts fresh (this coordinator leases cascading cases whole).
//   result     worker -> coordinator: the unit's CaseResult, lossless.
//   heartbeat  worker -> coordinator: liveness (silence past the timeout
//              is how a dead worker is detected and its units re-issued).
//   steal      worker -> coordinator: request for more leases; the
//              cross-host analogue of the in-process deque steal.
//   shutdown   coordinator -> worker: sweep drained, disconnect cleanly.
//
// Decoding throws DecodeError on truncation, caps, unknown types, or a
// newer envelope than this build speaks; frames are never trusted input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "util/codec.hpp"

namespace dynvote::fabric {

/// Protocol identifier exchanged in hello frames; incompatible layout
/// changes bump this string, additive ones bump kFrameVersion instead.
inline constexpr std::string_view kFabricSchema = "dynvote.fabric.v1";

/// Envelope version stamped on every frame.  v1 was the initial protocol;
/// v2 added HeartbeatFrame::busy_seconds (worker-utilization telemetry);
/// v3 added the fault-model block to CaseDescriptor (kind + parameters +
/// trace document); v4 added HeartbeatFrame::metrics (the worker's
/// cumulative src/obs metrics snapshot, so the coordinator aggregates
/// live worker metrics into the manifest's observability block).
/// Decoders gate every post-v1 field on the envelope version, so a v4
/// coordinator still understands a v1 worker's frames and vice versa --
/// but encoding a non-geometric case at pre-v3 throws rather than letting
/// an old peer silently run the wrong model.
inline constexpr std::uint64_t kFrameVersion = 4;

/// Hard cap on one frame's payload, enforced on both the socket read of
/// the length prefix and the codec's per-item decode cap.  Far above any
/// real frame (snapshots are kilobytes), far below an allocation that
/// could hurt.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

enum class FrameType : std::uint8_t {  // dvlint: wire_enum
  kHello = 1,
  kLease = 2,
  kResult = 3,
  kHeartbeat = 4,
  kSteal = 5,
  kShutdown = 6,
};

/// One sweep case as shipped to workers: the manifest label plus every
/// CaseSpec field that shapes simulation.  Specs with a custom
/// algorithm_factory are not wire-portable and are rejected before
/// dispatch (encode_body throws std::invalid_argument).
struct CaseDescriptor {
  std::string label;
  CaseSpec spec;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct HelloFrame {
  /// Which side is speaking; the reply direction carries the case table.
  bool coordinator = false;
  /// kFabricSchema; mismatches are rejected at handshake.
  std::string schema = std::string(kFabricSchema);
  /// Producing build (git describe), informational only.
  std::string build;
  /// Worker capability: units it executes concurrently.
  std::uint64_t slots = 1;
  /// Coordinator contract: per-unit lease deadline it enforces.
  std::uint64_t lease_ms = 0;
  /// Coordinator contract: heartbeat cadence it expects from workers.
  std::uint64_t heartbeat_ms = 0;
  /// Coordinator only: the sweep's case table, indexed by lease frames.
  std::vector<CaseDescriptor> cases;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct LeaseFrame {
  /// Sweep-unique unit id; results echo it, duplicates are dropped by it.
  std::uint64_t unit_id = 0;
  /// Index into the hello frame's case table.
  std::uint64_t case_index = 0;
  std::uint64_t first_run = 0;
  std::uint64_t run_count = 0;
  /// Cascading units restore `snapshot`, when present, before running;
  /// fresh-start units ship empty bytes and seed purely from the case
  /// coordinates.
  bool cascading = false;
  std::vector<std::byte> snapshot;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct ResultFrame {
  std::uint64_t unit_id = 0;
  /// Worker-side wall seconds spent simulating the unit (telemetry).
  double compute_seconds = 0.0;
  CaseResult result;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct HeartbeatFrame {
  /// Units currently executing on the worker.
  std::uint64_t inflight = 0;
  /// Cumulative simulate time this connection, for utilization telemetry.
  /// Added in envelope v2; gated on the version in both directions.
  double busy_seconds = 0.0;
  /// Cumulative src/obs metrics snapshot of the worker process, so the
  /// coordinator can aggregate live worker metrics.  Added in envelope
  /// v4; gated on the version in both directions (pre-v4 peers simply
  /// ship/see an empty snapshot).  Telemetry only, never results.
  obs::MetricsSnapshot metrics;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct StealFrame {
  /// Additional leases the worker can absorb right now.
  std::uint64_t want = 1;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

struct ShutdownFrame {
  std::string reason;

  void encode_body(Encoder& enc, std::uint64_t version) const;
  void decode_body(Decoder& dec, std::uint64_t version);
};

using Frame = std::variant<HelloFrame, LeaseFrame, ResultFrame,
                           HeartbeatFrame, StealFrame, ShutdownFrame>;

FrameType frame_type(const Frame& frame);
std::string_view to_string(FrameType type);

/// Serialize `frame` behind the envelope.  `version` defaults to this
/// build's kFrameVersion; tests pass 1 to exercise the migration path.
std::vector<std::byte> encode_frame(const Frame& frame,
                                    std::uint64_t version = kFrameVersion);

/// Parse one frame payload (the bytes inside the socket length prefix).
/// Throws DecodeError on truncation, trailing bytes, unknown frame types,
/// or an envelope newer than this build understands.
Frame decode_frame(std::span<const std::byte> payload);

/// Execute one leased work unit against its case spec -- the exact same
/// code path on a remote worker and on the coordinator's local threads,
/// which is what makes placement invisible in the results.
CaseResult execute_unit(const CaseSpec& spec, const LeaseFrame& lease);

}  // namespace dynvote::fabric
