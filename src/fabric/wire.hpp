// The multi-host sweep fabric's wire protocol ("dynvote.fabric.v2").
//
// A coordinator owns a sweep and hands (unit_id, case_index, first_run,
// run_count) work units to worker processes over TCP; workers stream back
// unit results that merge bit-identically into the same manifest a
// single-host run writes.  Every message is one *frame*: a length-prefixed
// payload encoded with util/codec.hpp behind a tiny envelope:
//
//   varint  envelope version (kFrameVersion; any other version is refused)
//   u8      frame type
//   ...     frame body
//
// Frame types:
//   hello      both directions, first frame on a connection.  The worker
//              announces its capabilities (slots, build); the coordinator
//              replies with the sweep's case table and timing contract
//              (lease deadline, wanted heartbeat cadence).
//   lease      coordinator -> worker: one work unit, a run range of one
//              case (a cascading case is always leased whole).
//   result     worker -> coordinator: the unit's CaseResult, lossless, or
//              the error that stopped it.
//   heartbeat  worker -> coordinator: liveness (silence past the timeout
//              is how a dead worker is detected and its units re-issued).
//   shutdown   coordinator -> worker: sweep drained, disconnect cleanly.
//
// Workers never ask for work.  The coordinator keeps each worker at one
// lease per slot plus one in flight; a top-up it cannot fill (nothing
// pending) stays owed as credit and is paid when units are re-queued.
//
// Every fabric role runs from one build, so the protocol carries no
// per-field version gates: a peer speaking another envelope version fails
// its first frame with DecodeError.  Decoding throws DecodeError on
// truncation, caps, unknown types, or a foreign envelope version; frames
// are never trusted input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "sim/experiment.hpp"
#include "util/codec.hpp"

namespace dynvote::fabric {

/// Protocol identifier exchanged in hello frames.
inline constexpr std::string_view kFabricSchema = "dynvote.fabric.v2";

/// Envelope version stamped on every frame; decode_frame refuses any
/// other.  Any change to a frame body bumps it.
inline constexpr std::uint64_t kFrameVersion = 8;

/// Hard cap on one frame's payload, enforced on both the socket read of
/// the length prefix and the codec's per-item decode cap.  Far above any
/// real frame (a hello's case table is kilobytes), far below an
/// allocation that could hurt.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{64} << 20;

enum class FrameType : std::uint8_t {  // dvlint: wire_enum
  kHello = 1,
  kLease = 2,
  kResult = 3,
  kHeartbeat = 4,
  kShutdown = 6,
};

/// One sweep case as shipped to workers: the manifest label plus every
/// CaseSpec field that shapes simulation.  Specs with a custom
/// algorithm_factory are not wire-portable and are rejected before
/// dispatch (encode_body throws std::invalid_argument).
struct CaseDescriptor {
  std::string label;
  CaseSpec spec;

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
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

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

struct LeaseFrame {
  /// Sweep-unique unit id; results echo it, duplicates are dropped by it.
  std::uint64_t unit_id = 0;
  /// Index into the hello frame's case table.
  std::uint64_t case_index = 0;
  std::uint64_t first_run = 0;
  std::uint64_t run_count = 0;

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

struct ResultFrame {
  std::uint64_t unit_id = 0;
  /// Worker-side wall seconds spent simulating the unit (telemetry).
  double compute_seconds = 0.0;
  /// Non-empty when the unit threw: the exception's message.  The
  /// coordinator then fails the sweep and ignores `result`.
  std::string error;
  CaseResult result;

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

struct HeartbeatFrame {
  /// Cumulative simulate time this connection, for utilization telemetry.
  double busy_seconds = 0.0;

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

struct ShutdownFrame {
  std::string reason;

  void encode_body(Encoder& enc) const;
  void decode_body(Decoder& dec);
};

using Frame = std::variant<HelloFrame, LeaseFrame, ResultFrame,
                           HeartbeatFrame, ShutdownFrame>;

FrameType frame_type(const Frame& frame);
std::string_view to_string(FrameType type);

/// Serialize `frame` behind the envelope.
std::vector<std::byte> encode_frame(const Frame& frame);

/// Parse one frame payload (the bytes inside the socket length prefix).
/// Throws DecodeError on truncation, trailing bytes, unknown frame types,
/// or an envelope version other than kFrameVersion.
Frame decode_frame(std::span<const std::byte> payload);

}  // namespace dynvote::fabric
