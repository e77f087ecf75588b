#include "core/session.hpp"

#include "util/codec.hpp"

namespace dynvote {

std::string Session::to_string() const {
  return "session#" + std::to_string(number) + members.to_string();
}

void Session::encode(Encoder& enc) const {
  enc.put_varint(number);
  members.encode(enc);
}

Session Session::decode(Decoder& dec, std::size_t universe) {
  Session s;
  s.number = dec.get_varint();
  s.members = ProcessSet::decode(dec, universe);
  return s;
}

}  // namespace dynvote
