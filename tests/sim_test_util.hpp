// Shared helpers for algorithm and harness tests.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "gcs/gcs.hpp"

namespace dynvote::test {

/// Forwards every call to a wrapped algorithm.  Test decorators derive from
/// it, override the calls they observe or transform, and are installed
/// through a Gcs::AlgorithmFactory.
class ForwardingAlgorithm : public PrimaryComponentAlgorithm {
 public:
  explicit ForwardingAlgorithm(std::unique_ptr<PrimaryComponentAlgorithm> inner)
      : PrimaryComponentAlgorithm(inner->self(), inner->initial_view()),
        inner_(std::move(inner)) {}

  void view_changed(const View& view) override { inner_->view_changed(view); }
  Message incoming_message(Message message, ProcessId sender) override {
    return inner_->incoming_message(std::move(message), sender);
  }
  std::optional<Message> outgoing_message_poll(const Message& app) override {
    return inner_->outgoing_message_poll(app);
  }
  bool in_primary() const override { return inner_->in_primary(); }
  std::string_view name() const override { return inner_->name(); }
  AlgorithmDebugInfo debug_info() const override {
    return inner_->debug_info();
  }
  const Session& last_primary_session() const override {
    return inner_->last_primary_session();
  }

 protected:
  PrimaryComponentAlgorithm& inner() { return *inner_; }
  const PrimaryComponentAlgorithm& inner() const { return *inner_; }

 private:
  std::unique_ptr<PrimaryComponentAlgorithm> inner_;
};

/// What the invariant checker and has_primary read of one process.
struct ProcessReading {
  bool in_primary = false;
  Session last_primary;
  AlgorithmDebugInfo info;
  View view;

  bool operator==(const ProcessReading&) const = default;
};

inline ProcessReading reading(const Gcs& gcs, ProcessId p) {
  const PrimaryComponentAlgorithm& alg = gcs.algorithm(p);
  return {alg.in_primary(), alg.last_primary_session(), alg.debug_info(),
          gcs.view_of(p)};
}

/// Every input the invariant checker and has_primary read of the world.
struct WorldReading {
  std::vector<ProcessReading> processes;
  ProcessSet crashed;
  bool network_idle = true;

  bool operator==(const WorldReading&) const = default;
};

inline WorldReading reading(const Gcs& gcs) {
  WorldReading world{{}, gcs.crashed(), gcs.network_idle()};
  for (ProcessId p = 0; p < gcs.process_count(); ++p) {
    world.processes.push_back(reading(gcs, p));
  }
  return world;
}

/// Run rounds until quiescent; fails the test if the system chatters past
/// `max_rounds`.
inline void settle(Gcs& gcs, std::size_t max_rounds = 200) {
  for (std::size_t i = 0; i < max_rounds; ++i) {
    if (!gcs.step_round()) return;
  }
  FAIL() << "system did not quiesce within " << max_rounds << " rounds";
}

/// True iff every member of `members` is in a primary component.
inline bool all_in_primary(const Gcs& gcs, const ProcessSet& members) {
  bool all = true;
  members.for_each([&](ProcessId p) {
    if (!gcs.algorithm(p).in_primary()) all = false;
  });
  return all;
}

/// Number of processes currently claiming to be in a primary component.
inline std::size_t primary_member_count(const Gcs& gcs) {
  std::size_t n = 0;
  for (ProcessId p = 0; p < gcs.process_count(); ++p) {
    if (gcs.algorithm(p).in_primary()) ++n;
  }
  return n;
}

/// Cross-delivery policies for scripted partitions.  The network callbacks
/// are non-owning (FunctionRef), so these return pointers to functions with
/// static lifetime rather than referencing a temporary lambda.
inline bool never_cross(ProcessId) { return false; }
inline bool always_cross(ProcessId) { return true; }
inline Network::CrossDeliveryFn no_cross() { return &never_cross; }
inline Network::CrossDeliveryFn all_cross() { return &always_cross; }

}  // namespace dynvote::test
