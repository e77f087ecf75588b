// Fixture: a decode path that asserts on malformed input instead of
// throwing DecodeError.  Corrupted bytes are an input error, so dvlint must
// flag the DV_ASSERT inside decode().
#include <cstdint>

namespace fixture {

class Codec {
 public:
  static Codec decode(Decoder& dec);

 private:
  std::uint64_t value_ = 0;
};

Codec Codec::decode(Decoder& dec) {
  DV_ASSERT(dec.bytes_remaining() >= 8);
  Codec codec;
  codec.value_ = dec.get_varint();
  return codec;
}

}  // namespace fixture
