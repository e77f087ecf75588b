// The message envelope shared by applications and algorithms.
//
// Matches the thesis §2.1 contract: the application passes every outgoing
// message through the algorithm (which may piggyback protocol state onto
// it) and every incoming message back through it (which strips the state
// before the application sees it).  `app_data` is opaque application bytes;
// `protocol` is the piggybacked algorithm payload, if any.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/payload.hpp"

namespace dynvote {

struct Message {
  std::vector<std::byte> app_data;
  PayloadPtr protocol;

  /// An empty application message, used by the "poll after every receipt"
  /// convention so an idle application still gives the algorithm a chance
  /// to speak (thesis Figure 2-2).
  static Message empty() { return Message{}; }

  /// Convenience: a message whose application bytes are `text`.
  static Message from_text(std::string_view text);

  bool has_protocol() const { return protocol != nullptr; }

  /// Total bytes this message occupies on the wire (app bytes, a presence
  /// byte, and the encoded protocol payload when present).
  std::size_t wire_size() const;

  /// Full wire form; `parse` is the exact inverse for a message of a world
  /// of `universe` processes (see decode_payload).
  std::vector<std::byte> serialize() const;
  static Message parse(std::span<const std::byte> bytes, std::size_t universe);
};

}  // namespace dynvote
