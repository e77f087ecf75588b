// Ring-buffer trace recorder: spans and instants for the protocol event
// stream (case -> shard -> run -> view_installed / session_resolved /
// primary_formed), serialized as "dynvote.events.v1".
//
// Tracing is off by default and costs one relaxed atomic load + branch per
// site when disabled -- nothing allocates, so the zero-alloc hot-path
// guarantee and `results_fingerprint` are untouched.  Enabling (DV_TRACE=1
// or dvdispatch --trace-out) arms per-thread fixed-capacity rings of POD
// events; recording is a thread-local array write with no locks.  When a
// ring fills, the oldest events are overwritten and a dropped count is
// kept, so a runaway sweep degrades to a suffix trace instead of growing
// without bound (capacity per thread via DV_TRACE_BUF).
//
// Trace emission is observational only.  Both emission macros evaluate
// their arguments exactly once, armed or not, so no site computes anything
// differently when tracing toggles and results cannot depend on it.
// Timestamps come from steady_clock relative to the enable instant; they
// are telemetry, never inputs to the simulation.
//
// `trace_drain()` folds every ring into one time-sorted TraceFile.  It
// must only run while emitting threads are quiescent (the sweep runner
// drains after joining its pool); the rings themselves are plain memory.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace dynvote {
namespace obs {

inline constexpr char kEventsSchema[] = "dynvote.events.v1";

enum class EventKind : std::uint8_t {
  kBegin = 1,    // span open;  paired with the next kEnd of the same name/tid
  kEnd = 2,      // span close
  kInstant = 3,  // point event
};

/// One recorded event.  `seq` is the in-memory tiebreak for equal
/// timestamps on one thread; it is not serialized (the file is written in
/// sorted order).
struct TraceEvent {
  std::uint64_t ts_micros = 0;  // since trace_enable()
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t seq = 0;
  std::uint32_t name_id = 0;
  std::uint16_t tid = 0;
  EventKind kind = EventKind::kInstant;
};

namespace trace_detail {
extern std::atomic<bool> g_enabled;
}  // namespace trace_detail

/// True while tracing is armed.  This is the whole disabled-path cost.
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Arm tracing.  `events_per_thread` sizes each thread's ring (clamped to
/// a sane minimum); rings allocate lazily on a thread's first event.
void trace_enable(std::size_t events_per_thread = std::size_t{1} << 16);

/// Disarm tracing.  Already-recorded events stay buffered for drain.
void trace_disable();

/// Intern `name` into the process-wide name table, returning its stable
/// id.  Takes a lock; macro sites cache the id in a function-local static.
std::uint32_t intern_trace_name(std::string_view name);

/// Record one event on the calling thread's ring.  No-op when disabled.
void trace_emit(EventKind kind, std::uint32_t name_id, std::uint64_t a0,
                std::uint64_t a1);

/// A drained trace: the name table plus events sorted by
/// (ts_micros, tid, seq), and how many events were overwritten ring-wide.
struct TraceFile {
  std::vector<std::string> names;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  /// Serialize as dynvote.events.v1.
  std::vector<std::byte> encode() const;

  /// Strict parse; truncated or hostile input (bad schema, counts beyond
  /// the buffer, out-of-range name ids or kinds) throws DecodeError.
  static TraceFile decode(std::span<const std::byte> bytes);
};

/// Collect and clear every thread's ring.  Caller must ensure emitting
/// threads are quiescent (joined, or between sweeps on this thread).
TraceFile trace_drain();

/// RAII span: emits kBegin at construction and kEnd at destruction when
/// tracing is armed at construction time.  The name may be dynamic (case
/// labels); it is interned only when armed.
class TraceSpan {
 public:
  TraceSpan(std::string_view name, std::uint64_t a0, std::uint64_t a1)
      : armed_(trace_enabled()) {
    if (armed_) {
      name_id_ = intern_trace_name(name);
      trace_emit(EventKind::kBegin, name_id_, a0, a1);
    }
  }
  ~TraceSpan() {
    if (armed_) trace_emit(EventKind::kEnd, name_id_, 0, 0);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  std::uint32_t name_id_ = 0;
  bool armed_ = false;
};

}  // namespace obs
}  // namespace dynvote

// Emission macros.  Each evaluates its two arguments once, before it tests
// whether tracing is armed, so an argument runs the same whether or not
// anything is recorded.
#define DV_TRACE_CONCAT_INNER(a, b) a##b
#define DV_TRACE_CONCAT(a, b) DV_TRACE_CONCAT_INNER(a, b)

#define DV_TRACE_INSTANT(name_literal, arg0, arg1)                          \
  do {                                                                      \
    const auto dv_trace_a0_ = static_cast<std::uint64_t>(arg0);             \
    const auto dv_trace_a1_ = static_cast<std::uint64_t>(arg1);             \
    if (::dynvote::obs::trace_enabled()) {                                  \
      static const std::uint32_t dv_trace_name_id_ =                        \
          ::dynvote::obs::intern_trace_name(name_literal);                  \
      ::dynvote::obs::trace_emit(::dynvote::obs::EventKind::kInstant,       \
                                 dv_trace_name_id_, dv_trace_a0_,           \
                                 dv_trace_a1_);                             \
    }                                                                       \
  } while (false)
#define DV_TRACE_SPAN(name_expr, arg0, arg1)                       \
  ::dynvote::obs::TraceSpan DV_TRACE_CONCAT(dv_trace_span_,        \
                                            __LINE__) {           \
    (name_expr), static_cast<std::uint64_t>(arg0),                 \
        static_cast<std::uint64_t>(arg1)                           \
  }
