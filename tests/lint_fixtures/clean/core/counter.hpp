// Fixture: a fully compliant codec class.  Its decode path fails only
// through the decoder's own DecodeError and allocates nothing sized by a
// decoded count.  dvlint must report nothing here.
#pragma once

#include <cstdint>

#include "util/codec.hpp"

namespace fixture {

class Counter {
 public:
  void encode(Encoder& enc) const {
    enc.put_varint(total_);
    enc.put_varint(limit_);
  }

  static Counter decode(Decoder& dec) {
    Counter counter;
    counter.total_ = dec.get_varint();
    counter.limit_ = dec.get_varint();
    return counter;
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t limit_ = 0;
};

}  // namespace fixture
