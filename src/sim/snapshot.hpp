// Simulation snapshots as replay points.
//
// The driver loop draws every choice from streams seeded by the
// configuration (thesis §2.2), so a world is a pure function of its
// configuration and of the events it has run: the event count names its
// whole state.  A snapshot is that position on the world's trajectory,
// behind a small self-describing envelope:
//
//   schema string   "dynvote.snapshot.v4"; any layout change bumps it, so
//                   stale snapshot bytes are rejected, never misread;
//   algorithm id    the algorithm's name() string;
//   config hash     a fingerprint of every configuration field that shapes
//                   the trajectory.  The observability toggles
//                   (check_invariants, measure_wire_sizes) are left out:
//                   they do not move the trajectory, and a restored world
//                   replays under its own;
//   event count     Simulation::events();
//   counters        Gcs::revision(), Gcs::deliveries() and
//                   Simulation::total_changes() at that event;
//   checksum        FNV-1a over every field above.
//
// restore_snapshot replays the events into a world that has run none, so
// it costs as much as running the saved world's prefix, and the restored
// world carries everything the saved one did, checker history included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sim/driver.hpp"

namespace dynvote {

inline constexpr std::string_view kSnapshotSchema = "dynvote.snapshot.v4";

/// Fingerprint of the trajectory-determining SimulationConfig fields
/// (processes, changes, rate, crash fraction, fault model + parameters,
/// seed, stabilization budget) -- NOT the observability toggles.
std::uint64_t config_trajectory_hash(const SimulationConfig& config);

/// The replay point `sim` stands at.
std::vector<std::byte> save_snapshot(const Simulation& sim);

/// Replay `sim` to the point `bytes` names.  `sim` must have run no event
/// (else PreconditionViolation).  Bytes for another schema, algorithm or
/// trajectory config, or whose checksum fails, throw DecodeError before
/// any event runs.  A replay that reaches other counters than the saved
/// ones throws DecodeError: the saved world was moved outside the driver
/// (a hand-applied partition, say), so its trajectory cannot be replayed.
void restore_snapshot(Simulation& sim, std::span<const std::byte> bytes);

}  // namespace dynvote
