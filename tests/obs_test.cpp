// The trace recorder: ring/drain behavior and the dynvote.events.v1 file
// format -- including hostile-input rejection, since trace files cross
// process boundaries.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/codec.hpp"

namespace dynvote::obs {
namespace {

TEST(Trace, DisabledEmitsNothing) {
  ASSERT_FALSE(trace_enabled());
  DV_TRACE_INSTANT("never", 1, 2);
  { DV_TRACE_SPAN("never_span", 0, 0); }
  const TraceFile file = trace_drain();
  for (const TraceEvent& ev : file.events) {
    EXPECT_NE(file.names[ev.name_id], "never");
    EXPECT_NE(file.names[ev.name_id], "never_span");
  }
}

TEST(Trace, RecordsSpansAndInstantsInOrder) {
  trace_enable(64);
  {
    DV_TRACE_SPAN("outer", 7, 8);
    DV_TRACE_INSTANT("tick", 1, 2);
  }
  trace_disable();
  const TraceFile file = trace_drain();
  ASSERT_EQ(file.events.size(), 3u);
  EXPECT_EQ(file.names[file.events[0].name_id], "outer");
  EXPECT_EQ(file.events[0].kind, EventKind::kBegin);
  EXPECT_EQ(file.events[0].a0, 7u);
  EXPECT_EQ(file.events[0].a1, 8u);
  EXPECT_EQ(file.names[file.events[1].name_id], "tick");
  EXPECT_EQ(file.events[1].kind, EventKind::kInstant);
  EXPECT_EQ(file.names[file.events[2].name_id], "outer");
  EXPECT_EQ(file.events[2].kind, EventKind::kEnd);
  // Drain cleared the rings.
  EXPECT_TRUE(trace_drain().events.empty());
}

TEST(Trace, RingOverwritesOldestAndCountsDrops) {
  trace_enable(16);  // the documented minimum ring capacity
  const std::uint32_t name = intern_trace_name("drop_test");
  for (std::uint64_t i = 0; i < 20; ++i) {
    trace_emit(EventKind::kInstant, name, i, 0);
  }
  trace_disable();
  const TraceFile file = trace_drain();
  ASSERT_EQ(file.events.size(), 16u);
  EXPECT_EQ(file.dropped, 4u);
  // The survivors are the newest sixteen, oldest first.
  EXPECT_EQ(file.events[0].a0, 4u);
  EXPECT_EQ(file.events[15].a0, 19u);
}

TEST(Trace, FileRoundTripsThroughEventsV1) {
  trace_enable(64);
  {
    DV_TRACE_SPAN(std::string("case p=8"), 0, 5);
    DV_TRACE_INSTANT("view_installed", 3, 4);
  }
  trace_disable();
  const TraceFile file = trace_drain();
  ASSERT_EQ(file.events.size(), 3u);

  const std::vector<std::byte> bytes = file.encode();
  const TraceFile back = TraceFile::decode(bytes);
  EXPECT_EQ(back.dropped, file.dropped);
  ASSERT_EQ(back.events.size(), file.events.size());
  for (std::size_t i = 0; i < back.events.size(); ++i) {
    EXPECT_EQ(back.events[i].ts_micros, file.events[i].ts_micros);
    EXPECT_EQ(back.events[i].kind, file.events[i].kind);
    EXPECT_EQ(back.events[i].a0, file.events[i].a0);
    EXPECT_EQ(back.events[i].a1, file.events[i].a1);
    EXPECT_EQ(back.names[back.events[i].name_id],
              file.names[file.events[i].name_id]);
  }
  // Re-encoding the decoded file is byte-identical.
  EXPECT_EQ(back.encode(), bytes);
}

TEST(Trace, DecodeRejectsHostileInput) {
  // Wrong schema string.
  {
    Encoder enc;
    enc.put_string("dynvote.events.v999");
    EXPECT_THROW((void)TraceFile::decode(enc.bytes()), DecodeError);
  }
  // Name count beyond the buffer.
  {
    Encoder enc;
    enc.put_string(kEventsSchema);
    enc.put_varint(std::uint64_t{1} << 50);
    EXPECT_THROW((void)TraceFile::decode(enc.bytes()), DecodeError);
  }
  // Event referencing a name id out of range.
  {
    Encoder enc;
    enc.put_string(kEventsSchema);
    enc.put_varint(1);
    enc.put_string("only");
    enc.put_varint(0);  // dropped
    enc.put_varint(1);  // one event
    enc.put_varint(0);  // ts
    enc.put_varint(5);  // name_id 5: out of range
    enc.put_varint(0);  // tid
    enc.put_u8(3);      // instant
    enc.put_varint(0);
    enc.put_varint(0);
    EXPECT_THROW((void)TraceFile::decode(enc.bytes()), DecodeError);
  }
  // Unknown event kind.
  {
    Encoder enc;
    enc.put_string(kEventsSchema);
    enc.put_varint(1);
    enc.put_string("only");
    enc.put_varint(0);
    enc.put_varint(1);
    enc.put_varint(0);
    enc.put_varint(0);
    enc.put_varint(0);
    enc.put_u8(9);  // no such EventKind
    enc.put_varint(0);
    enc.put_varint(0);
    EXPECT_THROW((void)TraceFile::decode(enc.bytes()), DecodeError);
  }
  // Truncated mid-event.
  {
    trace_enable(16);
    DV_TRACE_INSTANT("t", 1, 2);
    trace_disable();
    const std::vector<std::byte> bytes = trace_drain().encode();
    const std::span<const std::byte> cut(bytes.data(), bytes.size() - 1);
    EXPECT_THROW((void)TraceFile::decode(cut), DecodeError);
  }
  // Trailing garbage after a valid file.
  {
    trace_enable(16);
    DV_TRACE_INSTANT("t2", 1, 2);
    trace_disable();
    std::vector<std::byte> bytes = trace_drain().encode();
    bytes.push_back(std::byte{0x7f});
    EXPECT_THROW((void)TraceFile::decode(bytes), DecodeError);
  }
}

TEST(Trace, ThreadsGetDistinctTidsAndMergeSorted) {
  trace_enable(64);
  const std::uint32_t name = intern_trace_name("cross_thread");
  trace_emit(EventKind::kInstant, name, 1, 0);
  std::thread t([&] { trace_emit(EventKind::kInstant, name, 2, 0); });
  t.join();
  trace_disable();
  const TraceFile file = trace_drain();
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_NE(file.events[0].tid, file.events[1].tid);
  // Sorted by timestamp regardless of which ring an event came from.
  EXPECT_LE(file.events[0].ts_micros, file.events[1].ts_micros);
}

}  // namespace
}  // namespace dynvote::obs
