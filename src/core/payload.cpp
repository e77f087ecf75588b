#include "core/payload.hpp"

#include "util/assert.hpp"

namespace dynvote {

namespace {

void encode_session_vector(Encoder& enc, const std::vector<Session>& sessions) {
  enc.put_varint(sessions.size());
  for (const Session& s : sessions) s.encode(enc);
}

std::vector<Session> decode_session_vector(Decoder& dec,
                                           std::size_t universe) {
  const std::uint64_t n = dec.get_varint();
  if (n > 100'000) throw DecodeError("implausible session vector length");
  std::vector<Session> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(Session::decode(dec, universe));
  }
  return out;
}

Mr1pStatus decode_status(Decoder& dec) {
  const auto raw = dec.get_u8();
  if (raw > static_cast<std::uint8_t>(Mr1pStatus::kTryFail)) {
    throw DecodeError("bad Mr1pStatus");
  }
  return static_cast<Mr1pStatus>(raw);
}

Mr1pVerdict decode_verdict(Decoder& dec) {
  const auto raw = dec.get_u8();
  if (raw < static_cast<std::uint8_t>(Mr1pVerdict::kFormed) ||
      raw > static_cast<std::uint8_t>(Mr1pVerdict::kStatusTryFail)) {
    throw DecodeError("bad Mr1pVerdict");
  }
  return static_cast<Mr1pVerdict>(raw);
}

/// Throws DecodeError if an entry of `last_formed` follows `last_primary`.
/// Every lastFormed entry was its holder's lastPrimary when written, and a
/// lastPrimary only moves forward, so no reachable state has one; ACCEPT
/// relies on that to skip its scan (YkdFamilyBase::on_exchange_complete).
void check_last_formed(const Session& last_primary,
                       const std::vector<Session>& last_formed) {
  for (const Session& s : last_formed) {
    if (session_precedes(last_primary, s)) {
      throw DecodeError("a lastFormed entry follows lastPrimary");
    }
  }
}

}  // namespace

void StateExchangePayload::encode_body(Encoder& enc) const {
  enc.put_varint(session_number);
  last_primary.encode(enc);
  encode_session_vector(enc, ambiguous);
  encode_session_vector(enc, last_formed);
}

PayloadRef<StateExchangePayload> StateExchangePayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<StateExchangePayload>();
  p->session_number = dec.get_varint();
  p->last_primary = Session::decode(dec, universe);
  p->ambiguous = decode_session_vector(dec, universe);
  p->last_formed = decode_session_vector(dec, universe);
  check_last_formed(p->last_primary, p->last_formed);
  return p;
}

void AttemptPayload::encode_body(Encoder& enc) const { proposal.encode(enc); }

PayloadRef<AttemptPayload> AttemptPayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<AttemptPayload>();
  p->proposal = Session::decode(dec, universe);
  return p;
}

void GcRoundPayload::encode_body(Encoder& enc) const {
  enc.put_varint(formed_number);
}

PayloadRef<GcRoundPayload> GcRoundPayload::decode_body(
    Decoder& dec, std::size_t /*universe*/) {
  auto p = make_payload<GcRoundPayload>();
  p->formed_number = dec.get_varint();
  return p;
}

void Mr1pPendingPayload::encode_body(Encoder& enc) const {
  enc.put_bool(has_pending);
  pending.encode(enc);
  enc.put_varint(num);
  enc.put_u8(static_cast<std::uint8_t>(status));
}

PayloadRef<Mr1pPendingPayload> Mr1pPendingPayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<Mr1pPendingPayload>();
  p->has_pending = dec.get_bool();
  p->pending = Session::decode(dec, universe);
  p->num = dec.get_varint();
  p->status = decode_status(dec);
  return p;
}

void Mr1pReplyPayload::encode_body(Encoder& enc) const {
  enc.put_varint(replies.size());
  for (const Mr1pReplyItem& r : replies) {
    r.about.encode(enc);
    enc.put_u8(static_cast<std::uint8_t>(r.verdict));
    enc.put_varint(r.num);
  }
}

PayloadRef<Mr1pReplyPayload> Mr1pReplyPayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<Mr1pReplyPayload>();
  const std::uint64_t n = dec.get_varint();
  if (n > 100'000 || n > dec.remaining()) {
    throw DecodeError("implausible reply count");
  }
  p->replies.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Mr1pReplyItem r;
    r.about = Session::decode(dec, universe);
    r.verdict = decode_verdict(dec);
    r.num = dec.get_varint();
    p->replies.push_back(std::move(r));
  }
  return p;
}

void Mr1pResolvePayload::encode_body(Encoder& enc) const {
  about.encode(enc);
  enc.put_u8(static_cast<std::uint8_t>(call));
}

PayloadRef<Mr1pResolvePayload> Mr1pResolvePayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<Mr1pResolvePayload>();
  p->about = Session::decode(dec, universe);
  p->call = decode_verdict(dec);
  return p;
}

void Mr1pProposePayload::encode_body(Encoder& enc) const { proposal.encode(enc); }

PayloadRef<Mr1pProposePayload> Mr1pProposePayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<Mr1pProposePayload>();
  p->proposal = Session::decode(dec, universe);
  return p;
}

void Mr1pAttemptPayload::encode_body(Encoder& enc) const { proposal.encode(enc); }

PayloadRef<Mr1pAttemptPayload> Mr1pAttemptPayload::decode_body(
    Decoder& dec, std::size_t universe) {
  auto p = make_payload<Mr1pAttemptPayload>();
  p->proposal = Session::decode(dec, universe);
  return p;
}

std::vector<std::byte> encode_payload(const ProtocolPayload& payload) {
  Encoder enc;
  enc.put_u8(static_cast<std::uint8_t>(payload.type()));
  enc.put_varint(payload.view_id);
  payload.encode_body(enc);
  return enc.take();
}

PayloadPtr decode_payload(std::span<const std::byte> bytes,
                          std::size_t universe) {
  Decoder dec(bytes);
  const auto raw_type = dec.get_u8();
  const ViewId view_id = dec.get_varint();

  PayloadRef<ProtocolPayload> payload;
  switch (static_cast<PayloadType>(raw_type)) {
    case PayloadType::kStateExchange:
      payload = StateExchangePayload::decode_body(dec, universe);
      break;
    case PayloadType::kAttempt:
      payload = AttemptPayload::decode_body(dec, universe);
      break;
    case PayloadType::kGcRound:
      payload = GcRoundPayload::decode_body(dec, universe);
      break;
    case PayloadType::kMr1pPending:
      payload = Mr1pPendingPayload::decode_body(dec, universe);
      break;
    case PayloadType::kMr1pReply:
      payload = Mr1pReplyPayload::decode_body(dec, universe);
      break;
    case PayloadType::kMr1pResolve:
      payload = Mr1pResolvePayload::decode_body(dec, universe);
      break;
    case PayloadType::kMr1pPropose:
      payload = Mr1pProposePayload::decode_body(dec, universe);
      break;
    case PayloadType::kMr1pAttempt:
      payload = Mr1pAttemptPayload::decode_body(dec, universe);
      break;
    default:
      throw DecodeError("unknown payload type");
  }
  payload->view_id = view_id;
  dec.finish();
  return payload;
}

std::size_t payload_wire_size(const ProtocolPayload& payload) {
  return encode_payload(payload).size();
}

}  // namespace dynvote
