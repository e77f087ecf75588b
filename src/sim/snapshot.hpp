// Versioned simulation snapshots.
//
// A snapshot captures the complete mutable state of a Simulation --
// algorithm instances, in-flight messages, topology, RNG positions, and
// mid-run progress -- behind a small self-describing envelope:
//
//   schema string   "dynvote.snapshot.v2"; any layout change bumps it, so
//                   stale snapshot bytes are rejected, never misread
//                   (v2: the fault-model blob replaced the bare geometric
//                   scheduler state, and the config hash covers the model
//                   selection + parameters);
//   algorithm id    the algorithm's name() string;
//   git describe    the producing build, informational only (a snapshot is
//                   portable across builds as long as schema + config
//                   match);
//   config hash     a fingerprint of every configuration field that shapes
//                   the simulation trajectory.  Observability toggles
//                   (check_invariants, measure_wire_sizes,
//                   serialize_on_wire) are deliberately EXCLUDED: they do
//                   not affect the trajectory, and a fast unchecked
//                   "scout" snapshot (scout_cascading_case) restores into
//                   a fully-instrumented simulation.
//
// restore_snapshot throws DecodeError on truncation, corruption, a schema
// mismatch, or a snapshot taken under a different trajectory config.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/driver.hpp"

namespace dynvote {

inline constexpr std::string_view kSnapshotSchema = "dynvote.snapshot.v2";

/// Fingerprint of the trajectory-determining SimulationConfig fields
/// (processes, changes, rate, crash fraction, fault model + parameters,
/// seed, observer, stabilization budget) -- NOT the observability toggles.
std::uint64_t config_trajectory_hash(const SimulationConfig& config);

/// Serialize `sim` behind the versioned envelope.
std::vector<std::byte> save_snapshot(const Simulation& sim);

/// Restore `sim` from snapshot bytes.  `sim` must have been constructed
/// with a config whose trajectory hash and algorithm match the producer's;
/// anything else throws DecodeError.
void restore_snapshot(Simulation& sim, std::span<const std::byte> bytes);

}  // namespace dynvote
