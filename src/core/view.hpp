// Views, as reported by the group communication service.
//
// "A view is nothing more than a list of all of the processes which are
// currently connected" (thesis §2.1).  Ours also carries the monotone id
// the GCS stamped on it, which protocol payloads echo so stale messages
// from an earlier view can be discarded.
#pragma once

#include <string>

#include "core/process_set.hpp"
#include "core/types.hpp"

namespace dynvote {

struct View {
  ViewId id = 0;
  ProcessSet members;

  bool operator==(const View&) const = default;

  std::string to_string() const {
    return "view#" + std::to_string(id) + members.to_string();
  }
};

}  // namespace dynvote
