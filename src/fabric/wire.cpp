#include "fabric/wire.hpp"

#include <bit>
#include <stdexcept>

namespace dynvote::fabric {

namespace {

// Doubles travel as their IEEE-754 bit pattern in a fixed little-endian
// word: exact round-trip, no locale or formatting in the loop.
void put_double(Encoder& enc, double value) {
  enc.put_u64_fixed(std::bit_cast<std::uint64_t>(value));
}

double get_double(Decoder& dec) {
  return std::bit_cast<double>(dec.get_u64_fixed());
}

AlgorithmKind algorithm_from_wire(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(AlgorithmKind::kMr1p)) {
    throw DecodeError("unknown algorithm kind " + std::to_string(raw) +
                      " in case descriptor");
  }
  return static_cast<AlgorithmKind>(raw);
}

RunMode mode_from_wire(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(RunMode::kCascading)) {
    throw DecodeError("unknown run mode " + std::to_string(raw) +
                      " in case descriptor");
  }
  return static_cast<RunMode>(raw);
}

FaultModelKind fault_model_from_wire(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(FaultModelKind::kTrace)) {
    throw DecodeError("unknown fault model kind " + std::to_string(raw) +
                      " in case descriptor");
  }
  return static_cast<FaultModelKind>(raw);
}

}  // namespace

void CaseDescriptor::encode_body(Encoder& enc) const {
  if (spec.algorithm_factory) {
    // A std::function cannot travel; the coordinator refuses such sweeps
    // before any worker connects rather than silently running the wrong
    // algorithm remotely.
    throw std::invalid_argument(
        "case '" + label +
        "' uses a custom algorithm factory and cannot be dispatched "
        "to remote workers");
  }
  enc.put_string(label);
  enc.put_u8(static_cast<std::uint8_t>(spec.algorithm));
  enc.put_varint(spec.processes);
  enc.put_varint(spec.changes);
  put_double(enc, spec.mean_rounds);
  put_double(enc, spec.crash_fraction);
  enc.put_varint(spec.runs);
  enc.put_u8(static_cast<std::uint8_t>(spec.mode));
  enc.put_varint(spec.base_seed);
  enc.put_bool(spec.measure_wire_sizes);
  enc.put_bool(spec.check_invariants);
  enc.put_u8(static_cast<std::uint8_t>(spec.fault_model.kind));
  put_double(enc, spec.fault_model.wake_bias);
  enc.put_varint(spec.fault_model.repair_capacity);
  put_double(enc, spec.fault_model.repair_mean_rounds);
  enc.put_string(spec.fault_model.trace_json);
}

void CaseDescriptor::decode_body(Decoder& dec) {
  label = dec.get_string();
  spec.algorithm = algorithm_from_wire(dec.get_u8());
  spec.algorithm_factory = nullptr;
  spec.processes = static_cast<std::size_t>(dec.get_varint());
  spec.changes = static_cast<std::size_t>(dec.get_varint());
  spec.mean_rounds = get_double(dec);
  spec.crash_fraction = get_double(dec);
  spec.runs = dec.get_varint();
  spec.mode = mode_from_wire(dec.get_u8());
  spec.base_seed = dec.get_varint();
  spec.measure_wire_sizes = dec.get_bool();
  spec.check_invariants = dec.get_bool();
  spec.fault_model.kind = fault_model_from_wire(dec.get_u8());
  spec.fault_model.wake_bias = get_double(dec);
  spec.fault_model.repair_capacity = dec.get_varint();
  spec.fault_model.repair_mean_rounds = get_double(dec);
  spec.fault_model.trace_json = dec.get_string();
}

void HelloFrame::encode_body(Encoder& enc) const {
  enc.put_bool(coordinator);
  enc.put_string(schema);
  enc.put_string(build);
  enc.put_varint(slots);
  enc.put_varint(lease_ms);
  enc.put_varint(heartbeat_ms);
  enc.put_varint(cases.size());
  for (const CaseDescriptor& c : cases) c.encode_body(enc);
}

void HelloFrame::decode_body(Decoder& dec) {
  coordinator = dec.get_bool();
  schema = dec.get_string();
  build = dec.get_string();
  slots = dec.get_varint();
  lease_ms = dec.get_varint();
  heartbeat_ms = dec.get_varint();
  const std::uint64_t count = dec.get_varint();
  // One descriptor is a handful of bytes; a count beyond this is a corrupt
  // frame, not a sweep (the standard grids are a few hundred cases).
  if (count > 1'000'000 || count > dec.remaining()) {
    throw DecodeError("implausible case-table size " + std::to_string(count));
  }
  cases.clear();
  cases.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    cases.emplace_back().decode_body(dec);
  }
}

void LeaseFrame::encode_body(Encoder& enc) const {
  enc.put_varint(unit_id);
  enc.put_varint(case_index);
  enc.put_varint(first_run);
  enc.put_varint(run_count);
}

void LeaseFrame::decode_body(Decoder& dec) {
  unit_id = dec.get_varint();
  case_index = dec.get_varint();
  first_run = dec.get_varint();
  run_count = dec.get_varint();
}

void ResultFrame::encode_body(Encoder& enc) const {
  enc.put_varint(unit_id);
  put_double(enc, compute_seconds);
  enc.put_string(error);
  result.encode_body(enc);
}

void ResultFrame::decode_body(Decoder& dec) {
  unit_id = dec.get_varint();
  compute_seconds = get_double(dec);
  error = dec.get_string();
  result.decode_body(dec);
}

void HeartbeatFrame::encode_body(Encoder& enc) const {
  put_double(enc, busy_seconds);
}

void HeartbeatFrame::decode_body(Decoder& dec) {
  busy_seconds = get_double(dec);
}

void ShutdownFrame::encode_body(Encoder& enc) const {
  enc.put_string(reason);
}

void ShutdownFrame::decode_body(Decoder& dec) { reason = dec.get_string(); }

FrameType frame_type(const Frame& frame) {
  return std::visit(
      [](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, HelloFrame>) return FrameType::kHello;
        if constexpr (std::is_same_v<T, LeaseFrame>) return FrameType::kLease;
        if constexpr (std::is_same_v<T, ResultFrame>) {
          return FrameType::kResult;
        }
        if constexpr (std::is_same_v<T, HeartbeatFrame>) {
          return FrameType::kHeartbeat;
        }
        if constexpr (std::is_same_v<T, ShutdownFrame>) {
          return FrameType::kShutdown;
        }
      },
      frame);
}

std::string_view to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kLease: return "lease";
    case FrameType::kResult: return "result";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::vector<std::byte> encode_frame(const Frame& frame) {
  Encoder enc;
  enc.put_varint(kFrameVersion);
  enc.put_u8(static_cast<std::uint8_t>(frame_type(frame)));
  std::visit([&](const auto& f) { f.encode_body(enc); }, frame);
  return enc.take();
}

Frame decode_frame(std::span<const std::byte> payload) {
  Decoder dec(payload, kMaxFrameBytes);
  const std::uint64_t version = dec.get_varint();
  if (version != kFrameVersion) {
    throw DecodeError("frame envelope version " + std::to_string(version) +
                      " is not supported by this build (speaks " +
                      std::to_string(kFrameVersion) + ")");
  }
  const std::uint8_t type = dec.get_u8();
  Frame frame;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello: frame = HelloFrame{}; break;
    case FrameType::kLease: frame = LeaseFrame{}; break;
    case FrameType::kResult: frame = ResultFrame{}; break;
    case FrameType::kHeartbeat: frame = HeartbeatFrame{}; break;
    case FrameType::kShutdown: frame = ShutdownFrame{}; break;
    default:
      throw DecodeError("unknown frame type " + std::to_string(type));
  }
  std::visit([&](auto& f) { f.decode_body(dec); }, frame);
  dec.finish();
  return frame;
}

}  // namespace dynvote::fabric
