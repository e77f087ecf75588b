#include "sim/snapshot.hpp"

#include <bit>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {

namespace {

// FNV-1a, word at a time; stable across platforms for the fixed-width
// inputs we feed it.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void mix(std::string_view s) {
    mix(s.size());
    for (char c : s) mix(static_cast<unsigned char>(c));
  }
};

/// Where a world stands on its trajectory, and the counters it showed
/// there.
struct ReplayPoint {
  std::uint64_t events = 0;
  std::uint64_t revision = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t changes = 0;

  bool operator==(const ReplayPoint&) const = default;
};

ReplayPoint replay_point(const Simulation& sim) {
  return {sim.events(), sim.gcs().revision(), sim.gcs().deliveries(),
          sim.total_changes()};
}

std::uint64_t checksum(std::string_view schema, std::string_view algorithm,
                       std::uint64_t config_hash, const ReplayPoint& point) {
  Fnv1a fnv;
  fnv.mix(schema);
  fnv.mix(algorithm);
  fnv.mix(config_hash);
  fnv.mix(point.events);
  fnv.mix(point.revision);
  fnv.mix(point.deliveries);
  fnv.mix(point.changes);
  return fnv.h;
}

}  // namespace

std::uint64_t config_trajectory_hash(const SimulationConfig& config) {
  Fnv1a fnv;
  fnv.mix(config.processes);
  fnv.mix(config.changes_per_run);
  fnv.mix(std::bit_cast<std::uint64_t>(config.mean_rounds_between_changes));
  fnv.mix(std::bit_cast<std::uint64_t>(config.crash_fraction));
  // The fault model shapes the trajectory as much as the rate does; every
  // knob (used or not by the selected model) feeds the hash, including the
  // full trace document for replays.
  const FaultModelParams& model = config.fault_model;
  fnv.mix(static_cast<std::uint64_t>(model.kind));
  fnv.mix(std::bit_cast<std::uint64_t>(model.wake_bias));
  fnv.mix(model.repair_capacity);
  fnv.mix(std::bit_cast<std::uint64_t>(model.repair_mean_rounds));
  fnv.mix(model.trace_json);
  fnv.mix(config.seed);
  fnv.mix(config.max_stabilization_rounds);
  return fnv.h;
}

std::vector<std::byte> save_snapshot(const Simulation& sim) {
  const std::string_view algorithm = sim.gcs().algorithm(0).name();
  const std::uint64_t config_hash = config_trajectory_hash(sim.config());
  const ReplayPoint point = replay_point(sim);
  Encoder enc;
  enc.put_string(kSnapshotSchema);
  enc.put_string(algorithm);
  enc.put_u64_fixed(config_hash);
  enc.put_varint(point.events);
  enc.put_varint(point.revision);
  enc.put_varint(point.deliveries);
  enc.put_varint(point.changes);
  enc.put_u64_fixed(checksum(kSnapshotSchema, algorithm, config_hash, point));
  return enc.take();
}

void restore_snapshot(Simulation& sim, std::span<const std::byte> bytes) {
  DV_REQUIRE(sim.events() == 0,
             "a snapshot restores only into a world that has run no event");
  Decoder dec(bytes);
  const std::string schema = dec.get_string();
  if (schema != kSnapshotSchema) {
    throw DecodeError("snapshot schema mismatch: got \"" + schema +
                      "\", expected \"" + std::string(kSnapshotSchema) + "\"");
  }
  const std::string algorithm = dec.get_string();
  const std::string_view expected =
      std::as_const(sim).gcs().algorithm(0).name();
  if (algorithm != expected) {
    throw DecodeError("snapshot is for algorithm \"" + algorithm +
                      "\", this simulation runs \"" + std::string(expected) +
                      "\"");
  }
  const std::uint64_t config_hash = dec.get_u64_fixed();
  if (config_hash != config_trajectory_hash(sim.config())) {
    throw DecodeError(
        "snapshot was taken under a different simulation config");
  }
  ReplayPoint saved;
  saved.events = dec.get_varint();
  saved.revision = dec.get_varint();
  saved.deliveries = dec.get_varint();
  saved.changes = dec.get_varint();
  if (dec.get_u64_fixed() !=
      checksum(schema, algorithm, config_hash, saved)) {
    throw DecodeError("snapshot checksum mismatch");
  }
  dec.finish();

  // Each call runs at least one event, and stops early only at the end of
  // a run, which the next call's new run continues from.
  while (sim.events() < saved.events) {
    (void)sim.run_events(saved.events - sim.events());
  }
  if (replay_point(sim) != saved) {
    throw DecodeError(
        "replaying the snapshot's events reached other counters: the saved "
        "world was moved outside the driver");
  }
}

}  // namespace dynvote
