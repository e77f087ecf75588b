// End-to-end wire fidelity: running entire simulations with every
// multicast serialized to bytes and parsed back (as a real transport
// would) must be indistinguishable from in-memory delivery.  This proves
// the codec carries the complete protocol state of every algorithm -- the
// property a real Transis binding would rely on.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/message.hpp"
#include "sim/driver.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

/// Hands the GCS a copy of every outgoing message parsed back from its
/// bytes, so every delivery carries only what the wire format carries.
class OverTheWire final : public test::ForwardingAlgorithm {
 public:
  using ForwardingAlgorithm::ForwardingAlgorithm;

  std::optional<Message> outgoing_message_poll(const Message& app) override {
    std::optional<Message> out =
        ForwardingAlgorithm::outgoing_message_poll(app);
    if (out.has_value()) {
      *out = Message::parse(out->serialize(),
                            initial_view().members.universe_size());
    }
    return out;
  }
};

class WireFidelity : public ::testing::TestWithParam<AlgorithmKind> {};

TEST_P(WireFidelity, SerializedTransportIsBehaviorallyIdentical) {
  SimulationConfig config;
  config.algorithm = GetParam();
  config.processes = 16;
  config.changes_per_run = 8;
  config.mean_rounds_between_changes = 1.5;
  config.seed = 2024;

  SimulationConfig wire = config;
  wire.algorithm_factory = [kind = GetParam()](ProcessId self,
                                               const View& initial) {
    return std::make_unique<OverTheWire>(make_algorithm(kind, self, initial));
  };

  Simulation in_memory(config);
  Simulation serialized(wire);
  for (int run = 0; run < 6; ++run) {
    const RunResult a = in_memory.run_once();
    const RunResult b = serialized.run_once();
    EXPECT_EQ(a.primary_at_end, b.primary_at_end);
    EXPECT_EQ(a.rounds_executed, b.rounds_executed);
    EXPECT_EQ(a.observer_ambiguous_at_end, b.observer_ambiguous_at_end);
    EXPECT_EQ(a.observer_ambiguous_at_changes, b.observer_ambiguous_at_changes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, WireFidelity,
                         ::testing::ValuesIn(all_algorithm_kinds()),
                         [](const ::testing::TestParamInfo<AlgorithmKind>& p) {
                           std::string name(to_string(p.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dynvote
