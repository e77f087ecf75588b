// Compact binary encoding for protocol payloads.
//
// The paper reports wire sizes ("message sizes can typically be constrained
// to two kilobytes or less" at 64 processes), so piggybacked protocol state
// is given a real serialized form: unsigned LEB128 varints for integers and
// raw little-endian words for process-set bitmaps.  The simulator hands the
// decoded structures around by shared pointer for speed, but every payload
// is encoded once per send so sizes can be measured, and the codec is
// round-trip tested so the library is usable over a real transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dynvote {

/// Thrown by Decoder when input bytes are truncated or malformed.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Upper bound a Decoder accepts for a single length-prefixed item (blob or
/// string) unless the caller passes a tighter one.  Encoded payloads now
/// arrive from sockets, not only from files this process wrote, so a
/// corrupt or hostile length prefix must fail as DecodeError up front --
/// never reach an allocator sized by attacker-controlled bytes.  Generous
/// enough for any item the repo itself writes.
inline constexpr std::size_t kDefaultDecodeItemCap = std::size_t{256} << 20;

/// Append-only byte sink.
class Encoder {
 public:
  /// Unsigned LEB128 varint (1..10 bytes).
  void put_varint(std::uint64_t value);

  /// Single raw byte.
  void put_u8(std::uint8_t value);

  /// Boolean as one byte (0/1).
  void put_bool(bool value) { put_u8(value ? 1 : 0); }

  /// Raw little-endian 64-bit word.
  void put_u64_fixed(std::uint64_t value);

  /// Length-prefixed byte blob.
  void put_bytes(std::span<const std::byte> bytes);

  /// Length-prefixed UTF-8 string.
  void put_string(std::string_view s);

  /// Bytes written so far.
  std::size_t size() const { return buffer_.size(); }

  /// Consume the accumulated buffer.
  std::vector<std::byte> take() { return std::move(buffer_); }

  const std::vector<std::byte>& bytes() const { return buffer_; }

 private:
  std::vector<std::byte> buffer_;
};

/// Sequential reader over an encoded buffer; every getter throws DecodeError
/// on truncation, and `finish()` asserts full consumption.
class Decoder {
 public:
  /// `max_item_bytes` caps each length-prefixed item (get_bytes /
  /// get_string); a prefix above it throws DecodeError even when the
  /// buffer could satisfy it.  Network framing layers pass their frame
  /// budget here so one bad prefix cannot commit a huge allocation.
  explicit Decoder(std::span<const std::byte> bytes,
                   std::size_t max_item_bytes = kDefaultDecodeItemCap)
      : bytes_(bytes), max_item_bytes_(max_item_bytes) {}

  std::uint64_t get_varint();
  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint64_t get_u64_fixed();
  std::vector<std::byte> get_bytes();
  std::string get_string();

  /// Remaining unread byte count.
  std::size_t remaining() const { return bytes_.size() - pos_; }

  /// Throws unless the buffer was consumed exactly.
  void finish() const;

 private:
  void need(std::size_t n) const;

  /// Validate one item's length prefix against both the cap and the
  /// remaining input; throws DecodeError before any allocation happens.
  std::size_t checked_item_size(std::uint64_t n) const;

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
  std::size_t max_item_bytes_ = kDefaultDecodeItemCap;
};

}  // namespace dynvote
