#include "core/view.hpp"

#include "util/codec.hpp"

namespace dynvote {

void View::encode(Encoder& enc) const {
  enc.put_varint(id);
  members.encode(enc);
}

View View::decode(Decoder& dec, std::size_t universe) {
  View v;
  v.id = dec.get_varint();
  v.members = ProcessSet::decode(dec, universe);
  return v;
}

}  // namespace dynvote
