#include "core/simple_majority.hpp"

#include "core/quorum.hpp"

namespace dynvote {

SimpleMajority::SimpleMajority(ProcessId self, const View& initial_view)
    : PrimaryComponentAlgorithm(self, initial_view),
      last_primary_{initial_view.id, initial_view.members} {}

void SimpleMajority::view_changed(const View& view) {
  in_primary_ = is_subquorum(view.members, initial_view_.members);
  if (in_primary_) last_primary_ = Session{view.id, view.members};
}

Message SimpleMajority::incoming_message(Message message, ProcessId /*sender*/) {
  message.protocol = nullptr;  // never expects protocol payloads
  return message;
}

std::optional<Message> SimpleMajority::outgoing_message_poll(const Message& /*app*/) {
  return std::nullopt;  // sends nothing of its own
}

AlgorithmDebugInfo SimpleMajority::debug_info() const {
  AlgorithmDebugInfo info;
  info.last_primary = last_primary_;
  info.ambiguous_count = 0;
  info.blocked = false;
  return info;
}

}  // namespace dynvote
