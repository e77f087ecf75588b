#include "sim/snapshot.hpp"

#include <bit>
#include <string>
#include <utility>

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
};

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
  fnv.mix(model.trace_json.size());
  for (char c : model.trace_json) {
    fnv.mix(static_cast<unsigned char>(c));
  }
  fnv.mix(config.seed);
  fnv.mix(config.max_stabilization_rounds);
  return fnv.h;
}

std::vector<std::byte> save_snapshot(const Simulation& sim) {
  Encoder enc;
  enc.put_string(kSnapshotSchema);
  enc.put_string(sim.gcs().algorithm(0).name());
  enc.put_u64_fixed(config_trajectory_hash(sim.config()));
  sim.save(enc);
  return enc.take();
}

void restore_snapshot(Simulation& sim, std::span<const std::byte> bytes) {
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
  const std::uint64_t hash = dec.get_u64_fixed();
  if (hash != config_trajectory_hash(sim.config())) {
    throw DecodeError(
        "snapshot was taken under a different simulation config");
  }
  sim.load(dec);
  dec.finish();
}

}  // namespace dynvote
