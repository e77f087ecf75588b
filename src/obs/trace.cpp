#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "util/codec.hpp"
#include "util/guarded.hpp"

namespace dynvote {
namespace obs {

namespace trace_detail {
std::atomic<bool> g_enabled{false};
}  // namespace trace_detail

namespace {

/// Per-thread event ring.  Owned by the global state (so drain can reach
/// rings of exited threads); only the owning thread writes slots, and
/// drain reads them under the quiescence contract documented in trace.hpp.
struct Ring {
  std::vector<TraceEvent> slots;
  std::size_t next = 0;
  std::size_t count = 0;
  std::uint64_t dropped = 0;
  std::uint64_t seq = 0;
  std::uint16_t tid = 0;
  bool retired = false;  // owning thread exited; freed at the next drain
};

/// The rings and the interned names, shared by every emitting thread.
struct Registry {
  std::vector<std::unique_ptr<Ring>> rings;
  std::map<std::string, std::uint32_t, std::less<>> name_index;
  std::vector<std::string> names;
  std::uint16_t next_tid = 0;
};

struct TraceState {
  Guarded<Registry> registry;
  // Read lock-free by emitters; relaxed is fine (a stale capacity or epoch
  // only mis-sizes a ring or shifts telemetry timestamps, never races).
  std::atomic<std::size_t> ring_capacity{std::size_t{1} << 16};
  std::atomic<std::int64_t> epoch_ns{0};
};

/// Leaked so thread-exit retirement can run during static destruction.
TraceState& state() {
  static TraceState* instance = new TraceState();
  return *instance;
}

std::uint64_t now_micros() {
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  const std::int64_t rel = now_ns - state().epoch_ns.load(std::memory_order_relaxed);
  return rel > 0 ? static_cast<std::uint64_t>(rel) / 1000 : 0;
}

Ring* create_ring() {
  TraceState& s = state();
  auto owned = std::make_unique<Ring>();
  owned->slots.resize(s.ring_capacity.load(std::memory_order_relaxed));
  Ring* ring = owned.get();
  const auto r = s.registry.lock();
  ring->tid = r->next_tid;
  if (r->next_tid != std::uint16_t{0xffff}) ++r->next_tid;
  r->rings.push_back(std::move(owned));
  return ring;
}

struct TlsRing {
  Ring* ring = nullptr;
  ~TlsRing() {
    if (ring == nullptr) return;
    // The drain reads `retired` under the registry lock.
    const auto r = state().registry.lock();
    ring->retired = true;
  }
};

Ring& tls_ring() {
  thread_local TlsRing handle;
  if (handle.ring == nullptr) handle.ring = create_ring();
  return *handle.ring;
}

}  // namespace

void trace_enable(std::size_t events_per_thread) {
  TraceState& s = state();
  const std::size_t capacity = std::max<std::size_t>(events_per_thread, 16);
  s.ring_capacity.store(capacity, std::memory_order_relaxed);
  {
    // Re-arming after a drain applies the new capacity to existing rings
    // too; a ring still holding events (enable while armed) keeps its size
    // rather than losing them.
    const auto r = s.registry.lock();
    for (const auto& ring : r->rings) {
      if (ring->count == 0 && ring->slots.size() != capacity) {
        ring->slots.assign(capacity, TraceEvent{});
        ring->next = 0;
      }
    }
  }
  s.epoch_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count(),
                   std::memory_order_relaxed);
  trace_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() {
  trace_detail::g_enabled.store(false, std::memory_order_relaxed);
}

std::uint32_t intern_trace_name(std::string_view name) {
  const auto r = state().registry.lock();
  const auto it = r->name_index.find(name);
  if (it != r->name_index.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(r->names.size());
  r->names.emplace_back(name);
  r->name_index.emplace(std::string(name), id);
  return id;
}

void trace_emit(EventKind kind, std::uint32_t name_id, std::uint64_t a0,
                std::uint64_t a1) {
  if (!trace_enabled()) return;
  Ring& ring = tls_ring();
  if (ring.slots.empty()) return;
  TraceEvent& ev = ring.slots[ring.next];
  if (ring.count == ring.slots.size()) {
    ++ring.dropped;  // overwrite the oldest event
  } else {
    ++ring.count;
  }
  ev.ts_micros = now_micros();
  ev.a0 = a0;
  ev.a1 = a1;
  ev.seq = ring.seq++;
  ev.name_id = name_id;
  ev.tid = ring.tid;
  ev.kind = kind;
  ring.next = (ring.next + 1) % ring.slots.size();
}

TraceFile trace_drain() {
  const auto r = state().registry.lock();
  TraceFile file;
  file.names = r->names;
  for (const auto& ring : r->rings) {
    file.dropped += ring->dropped;
    if (ring->count == ring->slots.size()) {
      // Full ring: chronological order starts at the write cursor.
      file.events.insert(file.events.end(), ring->slots.begin() + ring->next,
                         ring->slots.end());
      file.events.insert(file.events.end(), ring->slots.begin(),
                         ring->slots.begin() + ring->next);
    } else {
      file.events.insert(file.events.end(), ring->slots.begin(),
                         ring->slots.begin() + ring->count);
    }
    ring->next = 0;
    ring->count = 0;
    ring->dropped = 0;
  }
  r->rings.erase(std::remove_if(r->rings.begin(), r->rings.end(),
                                [](const std::unique_ptr<Ring>& ring) {
                                  return ring->retired;
                                }),
                 r->rings.end());
  std::sort(file.events.begin(), file.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return std::tie(a.ts_micros, a.tid, a.seq) <
                     std::tie(b.ts_micros, b.tid, b.seq);
            });
  return file;
}

std::vector<std::byte> TraceFile::encode() const {
  Encoder enc;
  enc.put_string(kEventsSchema);
  enc.put_varint(names.size());
  for (const std::string& name : names) enc.put_string(name);
  enc.put_varint(dropped);
  enc.put_varint(events.size());
  for (const TraceEvent& ev : events) {
    enc.put_varint(ev.ts_micros);
    enc.put_varint(ev.name_id);
    enc.put_varint(ev.tid);
    enc.put_u8(static_cast<std::uint8_t>(ev.kind));
    enc.put_varint(ev.a0);
    enc.put_varint(ev.a1);
  }
  return enc.take();
}

TraceFile TraceFile::decode(std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  const std::string schema = dec.get_string();
  if (schema != kEventsSchema) {
    throw DecodeError("unexpected events schema \"" + schema + "\"");
  }
  TraceFile file;
  const std::uint64_t name_count = dec.get_varint();
  // Every name needs at least its one-byte length prefix, so a count past
  // the remaining input is malformed; reject before reserving.
  if (name_count > dec.remaining()) {
    throw DecodeError("events name count exceeds input");
  }
  file.names.reserve(static_cast<std::size_t>(name_count));
  for (std::uint64_t i = 0; i < name_count; ++i) {
    file.names.push_back(dec.get_string());
  }
  file.dropped = dec.get_varint();
  const std::uint64_t event_count = dec.get_varint();
  // Each event occupies at least 6 bytes; bounding by remaining bytes is
  // looser but still rejects hostile counts before allocation.
  if (event_count > dec.remaining()) {
    throw DecodeError("events count exceeds input");
  }
  file.events.reserve(static_cast<std::size_t>(event_count));
  for (std::uint64_t i = 0; i < event_count; ++i) {
    TraceEvent ev;
    ev.ts_micros = dec.get_varint();
    const std::uint64_t name_id = dec.get_varint();
    if (name_id >= file.names.size()) {
      throw DecodeError("event name id out of range");
    }
    ev.name_id = static_cast<std::uint32_t>(name_id);
    const std::uint64_t tid = dec.get_varint();
    if (tid > 0xffff) throw DecodeError("event tid out of range");
    ev.tid = static_cast<std::uint16_t>(tid);
    const std::uint8_t kind = dec.get_u8();
    if (kind < static_cast<std::uint8_t>(EventKind::kBegin) ||
        kind > static_cast<std::uint8_t>(EventKind::kInstant)) {
      throw DecodeError("event kind out of range");
    }
    ev.kind = static_cast<EventKind>(kind);
    ev.a0 = dec.get_varint();
    ev.a1 = dec.get_varint();
    ev.seq = i;
    file.events.push_back(ev);
  }
  dec.finish();
  return file;
}

}  // namespace obs
}  // namespace dynvote
