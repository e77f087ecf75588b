// Versioned JSON run artifacts ("manifests") for sweeps.
//
// One manifest per sweep, written next to the CSV/stdout outputs the
// benches already produce.  A manifest records results: the full
// configuration (cases, seeds, runs), provenance (schema version, git
// describe, creation time, DV_JOBS) and per-case measurements --
// availability, in-run availability, ambiguity histograms, wire stats and
// invariant-check counts -- plus the sweep's scheduling and timing
// telemetry.  Speed is the sweep benchmark's job (perfbench/), which
// compares two builds on one host; timings recorded on different machines
// are not comparable, so nothing gates on a manifest's.
//
// Layout (schema "dynvote.sweep.v3"):
//   {
//     "schema": "dynvote.sweep.v3",
//     "sweep": "<name>", "created_unix": ..., "git_describe": "...",
//     "jobs": N, "wall_seconds": ..., "total_runs": ...,
//     "results_fingerprint": "<hex>",
//     "cases": [ { "algorithm": "...", "processes": ..., "changes": ...,
//                  "rate": ..., "crash_fraction": ...,
//                  "fault_model": {"model": "...", ...},  <- non-geometric
//                                                            cases only
//                  "mode": "...", "base_seed": ..., "runs": ...,
//                  "successes": ..., "availability_percent": ...,
//                  "in_run_availability_percent": ...,
//                  "stable_histogram": {"buckets": [..], "samples": ..,
//                                       "max_observed": ..},
//                  "in_progress_histogram": {...},
//                  "wire": {"messages_sent": ..,
//                           "protocol_messages_sent": ..,
//                           "max_message_bytes": ..,
//                           "total_message_bytes": ..},
//                  "invariant_checks": .., "total_rounds": ..,
//                  "total_changes": .., "compute_seconds": ..,
//                  "total_deliveries": .., "shards": .., "steals": .. },
//                ... ],
//     "fabric": { "units_issued": .., "units_reissued": ..,
//                 "duplicate_results": ..,
//                 "workers_connected": .., "workers_died": ..,
//                 "workers": [ { "peer": "...", "slots": ..,
//                                "units_done": .., "busy_seconds": ..,
//                                "died": bool }, ... ] }
//                          <- multi-host sweeps only (fabric/); volatile
//                             scheduling telemetry, never fingerprinted
//   }
//
// Everything timing- or scheduling-flavored (created_unix, git_describe,
// jobs, wall_seconds, compute_seconds, shards, steals and the fabric
// block) is legitimately volatile between reruns.  The deterministic
// remainder is exposed separately as `manifest_results_json`, whose bytes
// must be identical for any DV_JOBS / shard sizing / scheduling, and whose
// hash is stamped into the full manifest as "results_fingerprint" so two
// manifests can be compared for statistical drift at a glance.  That
// results document is pinned to its own schema string ("dynvote.sweep.v2")
// so that a change to the volatile fields cannot move the fingerprint of
// unchanged simulation results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace dynvote {

/// Schema identifier stamped into every manifest; bump on layout changes.
inline constexpr const char* kSweepManifestSchema = "dynvote.sweep.v3";

/// Schema identifier embedded in the deterministic results document that
/// `results_fingerprint` hashes.  Deliberately NOT bumped with the
/// manifest schema: its layout is unchanged since v2, and keeping the
/// string fixed keeps fingerprints comparable across manifest versions.
inline constexpr const char* kSweepResultsSchema = "dynvote.sweep.v2";

/// Render the manifest document for a finished sweep.
std::string manifest_json(const SweepSpec& spec, const SweepResult& result);

/// Render only the deterministic subset -- sweep name, case coordinates,
/// and measured results; no timestamps, timing, worker counts, or shard
/// telemetry.  Bit-identical across any parallelism or shard sizing; the
/// runner tests compare these documents directly.
std::string manifest_results_json(const SweepSpec& spec,
                                  const SweepResult& result);

/// FNV-1a hash of `manifest_results_json`, as 16 hex digits.
std::string results_fingerprint(const SweepSpec& spec,
                                const SweepResult& result);

/// Write the manifest to `<artifact dir>/BENCH_<spec.name>.json` and
/// return the path.  The directory comes from DV_ARTIFACT_DIR (default
/// "artifacts", created on demand; "none"/"off"/"0" disables artifacts,
/// returning "").  Failures warn and return "" -- a sweep's results are
/// never discarded because a disk write failed.
std::string write_manifest(const SweepSpec& spec, const SweepResult& result);

/// Write `bytes` to `<artifact dir>/<filename>` under the same
/// DV_ARTIFACT_DIR discipline as `write_manifest`, returning the path
/// written or "" (failures warn, they never throw).  Used for
/// dynvote.events.v1 trace files.
std::string write_artifact_bytes(const std::string& filename,
                                 const std::vector<std::byte>& bytes);

/// The `git describe` string baked into this build ("unknown" when the
/// build was configured outside a git checkout).
const char* artifact_git_describe();

}  // namespace dynvote
