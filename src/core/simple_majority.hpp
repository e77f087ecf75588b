// The simple (non-dynamic) majority control algorithm (thesis §3.3).
//
// Declares a primary whenever the current view is a quorum of the *initial*
// view -- a strict majority, or exactly half including the lexically
// smallest initial member.  Stateless, message-free, and instantaneous; the
// dynamic voting algorithms exist to improve on it, so it serves as the
// baseline in every availability figure.
#pragma once

#include "core/algorithm.hpp"

namespace dynvote {

class SimpleMajority final : public PrimaryComponentAlgorithm {
 public:
  SimpleMajority(ProcessId self, const View& initial_view);

  void view_changed(const View& view) override;
  Message incoming_message(Message message, ProcessId sender) override;
  /// Message-free: a batch carries nothing for it to read.
  void incoming_messages(std::span<const Delivery> /*batch*/) override {}
  std::optional<Message> outgoing_message_poll(const Message& app) override;
  bool in_primary() const override { return in_primary_; }
  /// Primary in the initial view, as every process starts.
  bool restart() override;
  std::string_view name() const override { return "simple-majority"; }
  AlgorithmDebugInfo debug_info() const override;
  const Session& last_primary_session() const override { return last_primary_; }

 private:
  bool in_primary_ = true;
  Session last_primary_;  // latest view this process declared primary
};

}  // namespace dynvote
