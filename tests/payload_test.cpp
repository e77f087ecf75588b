// Wire round-trips for every protocol payload, plus malformed-input
// rejection and the message envelope.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/message.hpp"
#include "core/payload.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

/// Every session below is drawn over this universe, the world each payload
/// is decoded into.
constexpr std::size_t kUniverse = 64;

Session make_session(SessionNumber number, std::initializer_list<ProcessId> ids) {
  return Session{number, ProcessSet(kUniverse, ids)};
}

/// `bytes`, which end with the encoding of `last`, with that set rewritten by
/// hand over 200 processes naming {0, 150}: a universe past
/// ProcessSet::kMaxUniverse, which no set can encode.
std::vector<std::byte> end_over_200_processes(std::vector<std::byte> bytes,
                                             const ProcessSet& last) {
  Encoder own;
  last.encode(own);
  EXPECT_TRUE(std::equal(own.bytes().rbegin(), own.bytes().rend(),
                         bytes.rbegin()));
  bytes.resize(bytes.size() - own.bytes().size());
  Encoder foreign;
  foreign.put_varint(200);
  for (const std::uint64_t word : {1ULL, 0ULL, 1ULL << (150 - 128), 0ULL}) {
    foreign.put_u64_fixed(word);
  }
  bytes.insert(bytes.end(), foreign.bytes().begin(), foreign.bytes().end());
  return bytes;
}

template <typename T>
PayloadRef<const T> round_trip(const T& payload) {
  const auto bytes = encode_payload(payload);
  PayloadPtr decoded = decode_payload(bytes, kUniverse);
  EXPECT_EQ(decoded->type(), payload.type());
  EXPECT_EQ(decoded->view_id, payload.view_id);
  return static_payload_cast<const T>(std::move(decoded));
}

TEST(Payload, StateExchangeRoundTrip) {
  StateExchangePayload p;
  p.view_id = 42;
  p.session_number = 17;
  p.last_primary = make_session(9, {0, 1, 2});
  p.ambiguous = {make_session(11, {0, 1}), make_session(12, {0, 1, 2, 3})};
  p.last_formed.assign(4, make_session(9, {0, 1, 2}));
  p.last_formed[3] = make_session(5, {0, 3});

  const auto decoded = round_trip(p);
  EXPECT_EQ(decoded->session_number, 17u);
  EXPECT_EQ(decoded->last_primary, p.last_primary);
  EXPECT_EQ(decoded->ambiguous, p.ambiguous);
  EXPECT_EQ(decoded->last_formed, p.last_formed);
}

TEST(Payload, AttemptRoundTrip) {
  AttemptPayload p;
  p.view_id = 7;
  p.proposal = make_session(13, {1, 5, 9});
  EXPECT_EQ(round_trip(p)->proposal, p.proposal);
}

TEST(Payload, GcRoundRoundTrip) {
  GcRoundPayload p;
  p.view_id = 3;
  p.formed_number = 999;
  EXPECT_EQ(round_trip(p)->formed_number, 999u);
}

TEST(Payload, Mr1pPendingRoundTrip) {
  Mr1pPendingPayload p;
  p.view_id = 5;
  p.has_pending = true;
  p.pending = make_session(21, {2, 3});
  p.num = 4;
  p.status = Mr1pStatus::kAttempt;
  const auto d = round_trip(p);
  EXPECT_TRUE(d->has_pending);
  EXPECT_EQ(d->pending, p.pending);
  EXPECT_EQ(d->num, 4u);
  EXPECT_EQ(d->status, Mr1pStatus::kAttempt);
}

TEST(Payload, Mr1pReplyBatchRoundTrip) {
  Mr1pReplyPayload p;
  p.view_id = 6;
  p.replies.push_back({make_session(1, {0, 1}), Mr1pVerdict::kFormed, 0});
  p.replies.push_back({make_session(2, {2, 3}), Mr1pVerdict::kStatusSent, 1});
  p.replies.push_back({make_session(3, {4}), Mr1pVerdict::kAborted, 0});
  EXPECT_EQ(round_trip(p)->replies, p.replies);
}

TEST(Payload, Mr1pResolveProposeAttemptRoundTrip) {
  Mr1pResolvePayload r;
  r.view_id = 8;
  r.about = make_session(4, {0, 2});
  r.call = Mr1pVerdict::kStatusTryFail;
  EXPECT_EQ(round_trip(r)->call, Mr1pVerdict::kStatusTryFail);

  Mr1pProposePayload prop;
  prop.view_id = 9;
  prop.proposal = make_session(10, {0, 1, 2});
  EXPECT_EQ(round_trip(prop)->proposal, prop.proposal);

  Mr1pAttemptPayload att;
  att.view_id = 10;
  att.proposal = make_session(10, {0, 1, 2});
  EXPECT_EQ(round_trip(att)->proposal, att.proposal);
}

TEST(Payload, UnknownTypeByteRejected) {
  std::vector<std::byte> bytes{std::byte{0xEE}, std::byte{0}};
  EXPECT_THROW(decode_payload(bytes, kUniverse), DecodeError);
}

// A state payload is decoded into a world of 4 processes, but its
// lastFormed[0] is a session over 128 that names process 127.  Accepted,
// process 0's ACCEPT step would adopt that session and write lastFormed
// entry 127 of a 4-entry table.  A session over a universe past the cap,
// written by hand, is refused the same way.
TEST(Payload, SessionOverAnotherUniverseRejected) {
  constexpr std::size_t kWorld = 4;
  StateExchangePayload p;
  p.view_id = 2;
  p.session_number = 1;
  p.last_primary = Session{0, ProcessSet::full(kWorld)};
  p.last_formed.assign(kWorld, p.last_primary);
  const auto foreign =
      end_over_200_processes(encode_payload(p), p.last_formed.back().members);
  EXPECT_THROW(decode_payload(foreign, kWorld), DecodeError);
  p.last_formed[0] = Session{7, ProcessSet(128, {0, 127})};
  const auto bytes = encode_payload(p);
  EXPECT_THROW(decode_payload(bytes, kWorld), DecodeError);

  // The same payload drawn wholly over the world decodes, as the state of
  // a process that formed {0,3} as session 7 (a lastFormed entry is always
  // a past or present lastPrimary of its holder).
  p.last_primary = Session{7, ProcessSet(kWorld, {0, 3})};
  p.last_formed[0] = p.last_primary;
  p.last_formed[3] = p.last_primary;
  EXPECT_EQ(static_cast<const StateExchangePayload&>(
                *decode_payload(encode_payload(p), kWorld))
                .last_formed,
            p.last_formed);

  // So does every other session slot: the proposal of an attempt, too.
  AttemptPayload attempt;
  attempt.proposal = Session{7, ProcessSet(128, {0, 127})};
  EXPECT_THROW(decode_payload(encode_payload(attempt), kWorld), DecodeError);
  attempt.proposal = Session{7, ProcessSet(kWorld, {0})};
  const auto foreign_proposal = end_over_200_processes(
      encode_payload(attempt), attempt.proposal.members);
  EXPECT_THROW(decode_payload(foreign_proposal, kWorld), DecodeError);
}

// Every lastFormed entry was its holder's lastPrimary when written, and a
// lastPrimary only moves forward, so an entry newer than the lastPrimary
// beside it names a state no process reaches.  ACCEPT skips its scan on
// that premise, so the decoder refuses such a state.
TEST(Payload, LastFormedEntryAfterLastPrimaryRejected) {
  StateExchangePayload p;
  p.view_id = 5;
  p.session_number = 9;
  p.last_primary = make_session(8, {0, 1, 2});
  p.last_formed.assign(kUniverse, p.last_primary);
  p.last_formed[4] = make_session(6, {4, 5});  // older: reachable
  EXPECT_NO_THROW(decode_payload(encode_payload(p), kUniverse));

  p.last_formed[4] = make_session(9, {4, 5});  // newer number
  EXPECT_THROW(decode_payload(encode_payload(p), kUniverse), DecodeError);

  // Same number, later in the membership tie-break order.
  p.last_formed[4] = make_session(8, {0, 1, 2, 3});
  ASSERT_TRUE(session_precedes(p.last_primary, p.last_formed[4]));
  EXPECT_THROW(decode_payload(encode_payload(p), kUniverse), DecodeError);
}

TEST(Payload, TruncatedBodyRejected) {
  AttemptPayload p;
  p.proposal = make_session(13, {1, 5});
  auto bytes = encode_payload(p);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_payload(bytes, kUniverse), DecodeError);
}

TEST(Payload, TrailingGarbageRejected) {
  GcRoundPayload p;
  auto bytes = encode_payload(p);
  bytes.push_back(std::byte{0});
  EXPECT_THROW(decode_payload(bytes, kUniverse), DecodeError);
}

TEST(Payload, BadVerdictRejected) {
  Mr1pResolvePayload r;
  r.about = make_session(4, {0});
  r.call = Mr1pVerdict::kStatusTryFail;
  auto bytes = encode_payload(r);
  bytes.back() = std::byte{0x63};  // the call byte is encoded last
  EXPECT_THROW(decode_payload(bytes, kUniverse), DecodeError);
}

TEST(Payload, WireSizeMatchesEncoding) {
  StateExchangePayload p;
  p.last_primary = make_session(9, {0, 1, 2});
  p.last_formed.assign(64, make_session(9, {0, 1, 2}));
  EXPECT_EQ(payload_wire_size(p), encode_payload(p).size());
}

TEST(Payload, StateSizeAt64ProcessesIsUnderTwoKilobytes) {
  // The thesis: "message sizes can typically be constrained to two
  // kilobytes or less" for 64 processes.  A full state payload: last
  // primary, a typical handful of ambiguous sessions, and all 64 lastFormed
  // entries.
  StateExchangePayload p;
  p.session_number = 1000;
  p.last_primary = Session{999, ProcessSet::full(64)};
  for (int i = 0; i < 4; ++i) {
    p.ambiguous.push_back(Session{1000u + i, ProcessSet::full(64)});
  }
  p.last_formed.assign(64, Session{999, ProcessSet::full(64)});
  EXPECT_LE(payload_wire_size(p), 2048u);
}

// PayloadRef counts holders in the payload itself.  The pools rebuild a
// payload in place only at use_count() == 1, so the count must track every
// copy, widening, narrowing and release exactly, and a copied payload
// object must start with no holders of its own.
TEST(PayloadRef, CountsEveryHolderAndCopiesStartUnheld) {
  PayloadRef<AttemptPayload> original = make_payload<AttemptPayload>();
  original->proposal = make_session(3, {0, 1});
  EXPECT_EQ(original.use_count(), 1);

  PayloadPtr widened = original;
  EXPECT_EQ(original.use_count(), 2);
  const PayloadRef<AttemptPayload> copy =
      make_payload<AttemptPayload>(*original);
  EXPECT_EQ(copy.use_count(), 1);
  EXPECT_EQ(copy->proposal, original->proposal);
  EXPECT_EQ(original.use_count(), 2);

  PayloadRef<const AttemptPayload> narrowed =
      static_payload_cast<const AttemptPayload>(std::move(widened));
  EXPECT_EQ(widened, nullptr);
  EXPECT_EQ(narrowed.get(), original.get());
  EXPECT_EQ(original.use_count(), 2);

  const PayloadRef<const AttemptPayload>& same = narrowed;
  narrowed = same;  // self-assignment keeps the holder
  EXPECT_EQ(original.use_count(), 2);
  narrowed = nullptr;
  EXPECT_EQ(narrowed.use_count(), 0);
  EXPECT_EQ(original.use_count(), 1);
}

// reuse_payload hands back the pooled object while the pool is its only
// holder, and a new one while anyone else holds it, leaving that payload as
// it was sent.
TEST(PayloadRef, ReusePayloadNeverWritesAHeldPayload) {
  PayloadRef<GcRoundPayload> pool;
  reuse_payload(pool).formed_number = 7;
  const GcRoundPayload* first = pool.get();
  ASSERT_NE(first, nullptr);
  reuse_payload(pool).formed_number = 8;  // sole holder: rebuilt in place
  EXPECT_EQ(pool.get(), first);

  const PayloadPtr sent = pool;  // a recipient still holds it
  reuse_payload(pool).formed_number = 9;
  EXPECT_NE(pool.get(), first);
  EXPECT_EQ(sent.get(), first);
  EXPECT_EQ(static_cast<const GcRoundPayload&>(*sent).formed_number, 8u);
  EXPECT_EQ(pool->formed_number, 9u);
  EXPECT_EQ(pool.use_count(), 1);
}

TEST(Message, SerializeParseRoundTrip) {
  Message m = Message::from_text("hello world");
  auto att = make_payload<AttemptPayload>();
  att->view_id = 12;
  att->proposal = make_session(3, {0, 1});
  m.protocol = att;

  const auto bytes = m.serialize();
  const Message parsed = Message::parse(bytes, kUniverse);
  EXPECT_EQ(parsed.app_data, m.app_data);
  ASSERT_TRUE(parsed.has_protocol());
  EXPECT_EQ(parsed.protocol->type(), PayloadType::kAttempt);
  EXPECT_EQ(
      static_cast<const AttemptPayload&>(*parsed.protocol).proposal,
      att->proposal);
}

TEST(Message, EmptyMessageRoundTrip) {
  const Message empty = Message::empty();
  const Message parsed = Message::parse(empty.serialize(), kUniverse);
  EXPECT_TRUE(parsed.app_data.empty());
  EXPECT_FALSE(parsed.has_protocol());
}

TEST(Message, WireSizeCountsAppAndProtocol) {
  Message m = Message::from_text("abc");
  EXPECT_EQ(m.wire_size(), 4u);  // 3 app bytes + presence byte
  auto gc = make_payload<GcRoundPayload>();
  m.protocol = gc;
  EXPECT_EQ(m.wire_size(), 4u + payload_wire_size(*gc));
}

}  // namespace
}  // namespace dynvote
