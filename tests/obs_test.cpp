// The observability layer: metrics fold/merge algebra, snapshot wire
// round-trips, the trace recorder's ring/drain behavior, and the
// dynvote.events.v1 file format -- including hostile-input rejection, since
// both formats now cross process boundaries (heartbeats, trace files).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/codec.hpp"

namespace dynvote::obs {
namespace {

MetricsSnapshot snap(
    std::vector<std::pair<std::string, std::uint64_t>> counters,
    std::vector<HistogramSnapshot> histograms = {}) {
  MetricsSnapshot s;
  s.counters = std::move(counters);
  s.histograms = std::move(histograms);
  return s;
}

HistogramSnapshot hist(std::string name,
                       std::vector<std::uint64_t> values) {
  HistogramSnapshot h;
  h.name = std::move(name);
  for (const std::uint64_t v : values) {
    ++h.buckets[bucket_for(v)];
    h.sum += v;
  }
  return h;
}

std::vector<std::byte> encode(const MetricsSnapshot& s) {
  Encoder enc;
  s.encode_body(enc);
  return enc.take();
}

MetricsSnapshot decode(std::span<const std::byte> bytes) {
  Decoder dec(bytes);
  MetricsSnapshot s = MetricsSnapshot::decode_body(dec);
  dec.finish();
  return s;
}

bool same_bytes(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  return encode(a) == encode(b);
}

TEST(Buckets, BitWidthLayout) {
  EXPECT_EQ(bucket_for(0), 0u);
  EXPECT_EQ(bucket_for(1), 1u);
  EXPECT_EQ(bucket_for(2), 2u);
  EXPECT_EQ(bucket_for(3), 2u);
  EXPECT_EQ(bucket_for(4), 3u);
  EXPECT_EQ(bucket_for(UINT64_MAX), kHistogramBuckets - 1);
  EXPECT_EQ(bucket_floor(0), 0u);
  EXPECT_EQ(bucket_floor(1), 1u);
  EXPECT_EQ(bucket_floor(2), 2u);
  EXPECT_EQ(bucket_floor(3), 4u);
  // Every value's bucket floor is <= the value, and the next floor is
  // above it -- the buckets tile the u64 range.
  for (const std::uint64_t v : {std::uint64_t{5}, std::uint64_t{1000},
                                std::uint64_t{1} << 40, UINT64_MAX}) {
    const std::size_t b = bucket_for(v);
    EXPECT_LE(bucket_floor(b), v);
    if (b + 1 < kHistogramBuckets) {
      EXPECT_GT(bucket_floor(b + 1), v);
    }
  }
}

TEST(SnapshotMerge, CountersAdd) {
  MetricsSnapshot a = snap({{"x", 3}, {"y", 1}});
  const MetricsSnapshot b = snap({{"x", 2}, {"z", 5}});
  a.merge(b);
  EXPECT_EQ(a.counters,
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"x", 5}, {"y", 1}, {"z", 5}}));
}

TEST(SnapshotMerge, HistogramMergeIsAssociativeAndCommutative) {
  const MetricsSnapshot a = snap({}, {hist("lat", {1, 2, 3, 100})});
  const MetricsSnapshot b = snap({}, {hist("lat", {7, 7, 900})});
  const MetricsSnapshot c =
      snap({}, {hist("lat", {0, 5}), hist("other", {42})});

  // Commutativity: a+b == b+a.
  MetricsSnapshot ab = a;
  ab.merge(b);
  MetricsSnapshot ba = b;
  ba.merge(a);
  EXPECT_TRUE(same_bytes(ab, ba));

  // Associativity: (a+b)+c == a+(b+c).
  MetricsSnapshot ab_c = ab;
  ab_c.merge(c);
  MetricsSnapshot bc = b;
  bc.merge(c);
  MetricsSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(same_bytes(ab_c, a_bc));

  // And the fold really added: counts and sums line up.
  ASSERT_EQ(ab_c.histograms.size(), 2u);
  EXPECT_EQ(ab_c.histograms[0].name, "lat");
  EXPECT_EQ(ab_c.histograms[0].count(), 9u);
  EXPECT_EQ(ab_c.histograms[0].sum, 1u + 2 + 3 + 100 + 7 + 7 + 900 + 0 + 5);
  EXPECT_EQ(ab_c.histograms[1].name, "other");
  EXPECT_EQ(ab_c.histograms[1].count(), 1u);
}

TEST(SnapshotMerge, EmptyIsIdentity) {
  const MetricsSnapshot a = snap({{"x", 3}}, {hist("lat", {4, 9})});
  MetricsSnapshot left;
  left.merge(a);
  EXPECT_TRUE(same_bytes(left, a));
  MetricsSnapshot right = a;
  right.merge(MetricsSnapshot{});
  EXPECT_TRUE(same_bytes(right, a));
  EXPECT_TRUE(MetricsSnapshot{}.empty());
  EXPECT_FALSE(a.empty());
}

TEST(SnapshotDelta, CountersAndHistogramsSubtract) {
  const MetricsSnapshot base =
      snap({{"x", 3}, {"gone", 9}}, {hist("lat", {1, 1})});
  const MetricsSnapshot now =
      snap({{"x", 10}, {"new", 2}, {"gone", 9}}, {hist("lat", {1, 1, 8})});
  const MetricsSnapshot delta = now.delta_since(base);
  EXPECT_EQ(delta.counters,
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"new", 2}, {"x", 7}}));
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count(), 1u);
  EXPECT_EQ(delta.histograms[0].sum, 8u);
}

TEST(SnapshotWire, RoundTripsByteIdentically) {
  const MetricsSnapshot s =
      snap({{"a", 1}, {"b", UINT64_MAX}},
           {hist("lat", {0, 1, 5, 1u << 20}), hist("rt", {})});
  const std::vector<std::byte> bytes = encode(s);
  const MetricsSnapshot back = decode(bytes);
  EXPECT_EQ(encode(back), bytes);
  EXPECT_EQ(back.counters, s.counters);
}

TEST(SnapshotWire, DecodeNormalizesUnsortedInput) {
  // An unsorted (or duplicated) peer snapshot must still decode into the
  // canonical sorted-and-folded form, or cross-worker merges would depend
  // on peer memory layout.
  Encoder enc;
  enc.put_varint(2);  // counters
  enc.put_string("zz");
  enc.put_varint(1);
  enc.put_string("aa");
  enc.put_varint(2);
  enc.put_varint(0);  // histograms
  const std::vector<std::byte> bytes = enc.take();
  Decoder dec(bytes);
  const MetricsSnapshot s = MetricsSnapshot::decode_body(dec);
  dec.finish();
  EXPECT_EQ(s.counters,
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"aa", 2}, {"zz", 1}}));
}

TEST(SnapshotWire, HostileCountsThrowBeforeAllocating) {
  {
    // Counter count far beyond the buffer.
    Encoder enc;
    enc.put_varint(std::uint64_t{1} << 40);
    const std::vector<std::byte> bytes = enc.take();
    Decoder dec(bytes);
    EXPECT_THROW((void)MetricsSnapshot::decode_body(dec), DecodeError);
  }
  {
    // Histogram bucket index out of range.
    Encoder enc;
    enc.put_varint(0);  // counters
    enc.put_varint(1);  // one histogram
    enc.put_string("h");
    enc.put_varint(0);              // sum
    enc.put_varint(1);              // one bucket entry
    enc.put_varint(kHistogramBuckets);  // index == size: out of range
    enc.put_varint(1);
    const std::vector<std::byte> bytes = enc.take();
    Decoder dec(bytes);
    EXPECT_THROW((void)MetricsSnapshot::decode_body(dec), DecodeError);
  }
  {
    // Truncated mid-entry.
    Encoder enc;
    enc.put_varint(1);
    enc.put_string("only-a-name");
    const std::vector<std::byte> bytes = enc.take();
    Decoder dec(bytes);
    EXPECT_THROW((void)MetricsSnapshot::decode_body(dec), DecodeError);
  }
}

TEST(LiveRegistry, CountersAndHistogramsFold) {
  const MetricsSnapshot before = snapshot_metrics();

  static Counter counter("obs_test.counter");
  static Histogram histogram("obs_test.hist");
  counter.inc();
  counter.inc(4);
  histogram.record(3);
  histogram.record(300);

  // Another thread's increments land in the same named metric even after
  // the thread exits (its shard retires into the registry).
  std::thread t([] {
    static Counter same_name("obs_test.counter");
    same_name.inc(10);
  });
  t.join();

  const MetricsSnapshot delta = snapshot_metrics().delta_since(before);
  std::uint64_t counter_value = 0;
  for (const auto& [name, value] : delta.counters) {
    if (name == "obs_test.counter") counter_value = value;
  }
  EXPECT_EQ(counter_value, 15u);
  bool found_hist = false;
  for (const HistogramSnapshot& h : delta.histograms) {
    if (h.name != "obs_test.hist") continue;
    found_hist = true;
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.sum, 303u);
    EXPECT_EQ(h.buckets[bucket_for(3)], 1u);
    EXPECT_EQ(h.buckets[bucket_for(300)], 1u);
  }
  EXPECT_TRUE(found_hist);
}

// ---------------------------------------------------------------------------
// Trace recorder and the dynvote.events.v1 format

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
