#include "core/message.hpp"

#include "util/codec.hpp"

namespace dynvote {

Message Message::from_text(std::string_view text) {
  Message m;
  m.app_data.reserve(text.size());
  for (char c : text) m.app_data.push_back(static_cast<std::byte>(c));
  return m;
}

std::size_t Message::wire_size() const {
  std::size_t n = app_data.size() + 1;  // +1 presence byte
  if (protocol) n += payload_wire_size(*protocol);
  return n;
}

std::vector<std::byte> Message::serialize() const {
  Encoder enc;
  enc.put_bytes(app_data);
  if (protocol) {
    enc.put_bool(true);
    enc.put_bytes(encode_payload(*protocol));
  } else {
    enc.put_bool(false);
  }
  return enc.take();
}

Message Message::parse(std::span<const std::byte> bytes,
                       std::size_t universe) {
  Decoder dec(bytes);
  Message m;
  m.app_data = dec.get_bytes();
  if (dec.get_bool()) {
    const auto payload_bytes = dec.get_bytes();
    m.protocol = decode_payload(payload_bytes, universe);
  }
  dec.finish();
  return m;
}

}  // namespace dynvote
