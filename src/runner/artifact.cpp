#include "runner/artifact.hpp"

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "util/json.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

#ifndef DV_GIT_DESCRIBE
#define DV_GIT_DESCRIBE "unknown"
#endif

namespace dynvote {

namespace {

void histogram_json(JsonWriter& json, const AmbiguityHistogram& histogram) {
  json.begin_object();
  json.key("buckets").begin_array();
  for (std::uint64_t bucket : histogram.buckets) json.value(bucket);
  json.end_array();
  json.key("samples").value(histogram.samples);
  json.key("max_observed").value(static_cast<std::uint64_t>(histogram.max_observed));
  json.end_object();
}

std::uint64_t fnv1a(std::string_view bytes);

std::string hex16(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

/// Per-case document.  `include_volatile` adds the timing and scheduling
/// telemetry that legitimately differs between reruns of the same sweep;
/// the deterministic-results view leaves it out.
void case_json(JsonWriter& json, const CaseOutcome& outcome,
               bool include_volatile) {
  const CaseSpec& spec = outcome.spec;
  const CaseResult& r = outcome.result;
  json.begin_object();
  json.key("algorithm").value(outcome.algorithm);
  json.key("processes").value(static_cast<std::uint64_t>(spec.processes));
  json.key("changes").value(static_cast<std::uint64_t>(spec.changes));
  json.key("rate").value(spec.mean_rounds);
  json.key("crash_fraction").value(spec.crash_fraction);
  // Model-scoped fingerprints: the block names the fault model and its
  // parameters, and it is part of the results document -- a sleepy sweep
  // can never fingerprint-match a geometric one.  Geometric cases omit the
  // block entirely, so every pre-existing baseline fingerprint is
  // preserved bit-for-bit.
  if (spec.fault_model.kind != FaultModelKind::kGeometric) {
    const FaultModelParams& model = spec.fault_model;
    json.key("fault_model").begin_object();
    json.key("model").value(to_string(model.kind));
    switch (model.kind) {
      case FaultModelKind::kGeometric:
        break;
      case FaultModelKind::kSleepy:
        json.key("wake_bias").value(model.wake_bias);
        break;
      case FaultModelKind::kRepairable:
        json.key("repair_capacity").value(model.repair_capacity);
        json.key("repair_mean_rounds").value(model.repair_mean_rounds);
        break;
      case FaultModelKind::kTrace:
        // The document itself may be huge; its hash pins the schedule.
        json.key("trace_fingerprint").value(hex16(fnv1a(model.trace_json)));
        break;
    }
    json.end_object();
  }
  json.key("mode").value(to_string(spec.mode));
  json.key("base_seed").value(spec.base_seed);
  json.key("runs").value(r.runs);
  json.key("successes").value(r.successes);
  json.key("availability_percent").value(r.availability_percent());
  json.key("in_run_availability_percent").value(r.in_run_availability_percent());
  json.key("stable_histogram");
  histogram_json(json, r.stable);
  json.key("in_progress_histogram");
  histogram_json(json, r.in_progress);
  json.key("wire").begin_object();
  json.key("messages_sent").value(r.wire.messages_sent);
  json.key("protocol_messages_sent").value(r.wire.protocol_messages_sent);
  json.key("max_message_bytes").value(static_cast<std::uint64_t>(r.wire.max_message_bytes));
  json.key("total_message_bytes").value(r.wire.total_message_bytes);
  json.end_object();
  json.key("invariant_checks").value(r.invariant_checks);
  json.key("total_rounds").value(r.total_rounds);
  json.key("total_changes").value(r.total_changes);
  if (include_volatile) {
    json.key("compute_seconds").value(outcome.compute_seconds);
    // total_deliveries is deterministic, but it lives in the volatile
    // block: adding it to the results document would move every
    // pre-existing fingerprint for unchanged simulation results.
    json.key("total_deliveries").value(r.total_deliveries);
    json.key("shards").value(static_cast<std::uint64_t>(outcome.shards));
    json.key("steals").value(static_cast<std::uint64_t>(outcome.steals));
  }
  json.end_object();
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string manifest_results_json(const SweepSpec& spec,
                                  const SweepResult& result) {
  std::uint64_t total_runs = 0;
  for (const CaseOutcome& outcome : result.cases) {
    total_runs += outcome.result.runs;
  }

  JsonWriter json;
  json.begin_object();
  json.key("schema").value(kSweepResultsSchema);
  json.key("sweep").value(spec.name);
  json.key("total_runs").value(total_runs);
  json.key("cases").begin_array();
  for (const CaseOutcome& outcome : result.cases) {
    case_json(json, outcome, /*include_volatile=*/false);
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::string results_fingerprint(const SweepSpec& spec,
                                const SweepResult& result) {
  return hex16(fnv1a(manifest_results_json(spec, result)));
}

std::string manifest_json(const SweepSpec& spec, const SweepResult& result) {
  std::uint64_t total_runs = 0;
  for (const CaseOutcome& outcome : result.cases) {
    total_runs += outcome.result.runs;
  }

  JsonWriter json;
  json.begin_object();
  json.key("schema").value(kSweepManifestSchema);
  json.key("sweep").value(spec.name);
  // Manifest metadata only: excluded from results_fingerprint, so the
  // wall clock cannot leak into anything a rerun is compared against.
  json.key("created_unix")
      .value(static_cast<std::int64_t>(
          std::time(nullptr)));  // dvlint: ignore(determinism)
  json.key("git_describe").value(DV_GIT_DESCRIBE);
  json.key("jobs").value(static_cast<std::uint64_t>(result.jobs));
  json.key("wall_seconds").value(result.wall_seconds);
  json.key("total_runs").value(total_runs);
  json.key("results_fingerprint").value(results_fingerprint(spec, result));
  json.key("cases").begin_array();
  for (const CaseOutcome& outcome : result.cases) {
    case_json(json, outcome, /*include_volatile=*/true);
  }
  json.end_array();
  // Fabric scheduling telemetry (multi-host sweeps only).  Volatile by
  // design: which worker ran which unit, re-issues after deaths, and
  // steal traffic can never affect the merged results, and keeping the
  // block out of the results document is what lets a distributed manifest
  // fingerprint-match a single-host one.
  if (result.fabric.used) {
    const FabricTelemetry& fabric = result.fabric;
    json.key("fabric").begin_object();
    json.key("units_issued").value(fabric.units_issued);
    json.key("units_reissued").value(fabric.units_reissued);
    json.key("units_stolen").value(fabric.units_stolen);
    json.key("duplicate_results").value(fabric.duplicate_results);
    json.key("workers_connected").value(fabric.workers_connected);
    json.key("workers_died").value(fabric.workers_died);
    json.key("workers").begin_array();
    for (const FabricWorkerTelemetry& worker : fabric.workers) {
      json.begin_object();
      json.key("peer").value(worker.peer);
      json.key("slots").value(worker.slots);
      json.key("units_done").value(worker.units_done);
      json.key("busy_seconds").value(worker.busy_seconds);
      json.key("died").value(worker.died);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  return json.str();
}

namespace {

/// `<artifact dir>/<filename>`, creating the directory on demand; "" when
/// DV_ARTIFACT_DIR disables artifacts or the directory cannot be created.
std::string artifact_path(const std::string& filename) {
  const std::string dir = env_string("DV_ARTIFACT_DIR").value_or("artifacts");
  if (dir == "none" || dir == "off" || dir == "0") return "";

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    DV_LOG_WARN("cannot create artifact dir " << dir << ": " << ec.message());
    return "";
  }
  return dir + "/" + filename;
}

}  // namespace

std::string write_artifact_bytes(const std::string& filename,
                                 const std::vector<std::byte>& bytes) {
  const std::string path = artifact_path(filename);
  if (path.empty()) return "";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out ||
      !out.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()))) {
    DV_LOG_WARN("cannot write artifact " << path);
    return "";
  }
  return path;
}

std::string write_manifest(const SweepSpec& spec, const SweepResult& result) {
  const std::string path = artifact_path("BENCH_" + spec.name + ".json");
  if (path.empty()) return "";
  std::ofstream out(path);
  out << manifest_json(spec, result) << '\n';
  if (!out.good()) {
    DV_LOG_WARN("cannot write artifact " << path);
    return "";
  }
  return path;
}

const char* artifact_git_describe() { return DV_GIT_DESCRIBE; }

}  // namespace dynvote
