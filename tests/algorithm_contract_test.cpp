// The algorithm-to-application contract (thesis §2.1), enforced uniformly
// across every algorithm: payload stripping, app-data preservation,
// event-driven quiescence (state changes only on new information), and
// stale-view hygiene -- plus the premises the simulated GCS's
// input-driven polls and unchanged-world memos rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/algorithm.hpp"
#include "gcs/gcs.hpp"
#include "sim/driver.hpp"
#include "sim_test_util.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

class AlgorithmContract : public ::testing::TestWithParam<AlgorithmKind> {
 protected:
  static std::unique_ptr<PrimaryComponentAlgorithm> fresh(ProcessId self = 0,
                                                          std::size_t n = 4) {
    return make_algorithm(GetParam(), self, View{1, ProcessSet::full(n)});
  }
};

TEST_P(AlgorithmContract, FactoryProducesTheRightAlgorithm) {
  const auto alg = fresh();
  EXPECT_EQ(alg->name(), to_string(GetParam()));
  EXPECT_EQ(alg->self(), 0u);
  EXPECT_EQ(alg->initial_view().members, ProcessSet::full(4));
}

TEST_P(AlgorithmContract, StartsInPrimaryInTheInitialView) {
  // "The algorithm must be started with a list of all of the processes in
  // the very first view" -- and everyone together is the first primary.
  EXPECT_TRUE(fresh()->in_primary());
}

TEST_P(AlgorithmContract, ConstructionRequiresMembership) {
  EXPECT_THROW(
      make_algorithm(GetParam(), 9, View{1, ProcessSet::full(4)}),
      PreconditionViolation);
}

TEST_P(AlgorithmContract, IncomingStripsProtocolAndKeepsAppData) {
  const auto alg = fresh();
  Message m = Message::from_text("application bytes");
  auto payload = make_payload<GcRoundPayload>();
  payload->view_id = 1;
  m.protocol = payload;

  const Message out = alg->incoming_message(std::move(m), 1);
  EXPECT_FALSE(out.has_protocol());
  EXPECT_EQ(out.app_data, Message::from_text("application bytes").app_data);
}

TEST_P(AlgorithmContract, OutgoingPreservesAppData) {
  const auto alg = fresh();
  alg->view_changed(View{2, ProcessSet(4, {0, 1, 2})});
  const Message app = Message::from_text("user payload");
  const auto out = alg->outgoing_message_poll(app);
  if (out.has_value()) {
    EXPECT_EQ(out->app_data, app.app_data);
  }
}

TEST_P(AlgorithmContract, QuiescesAfterBoundedPolling) {
  // Event-driven: with no new information, the poll must eventually return
  // nothing, forever (the application never needs to poll spontaneously).
  const auto alg = fresh();
  alg->view_changed(View{2, ProcessSet(4, {0, 1, 2})});
  int sends = 0;
  for (int i = 0; i < 50; ++i) {
    if (alg->outgoing_message_poll(Message::empty()).has_value()) ++sends;
  }
  EXPECT_LE(sends, 5);
  // Once drained, it stays drained.
  EXPECT_EQ(alg->outgoing_message_poll(Message::empty()), std::nullopt);
}

TEST_P(AlgorithmContract, ViewChangeClearsPrimaryUntilReestablished) {
  Gcs gcs(GetParam(), 4);
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  gcs.apply_partition(0, ProcessSet(4, {3}));
  // Immediately after the view change nobody is primary: agreement must be
  // re-established first (simple majority is the one exception -- it is
  // stateless and message-free, so its declaration is instantaneous).
  if (GetParam() != AlgorithmKind::kSimpleMajority) {
    EXPECT_FALSE(gcs.algorithm(0).in_primary());
  }
  test::settle(gcs);
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
}

TEST_P(AlgorithmContract, IgnoresPayloadsFromOtherViews) {
  const auto alg = fresh();
  // A singleton view: no algorithm may consider it primary without a
  // protocol exchange (and simple majority: 1 of 4 is no quorum).
  alg->view_changed(View{5, ProcessSet(4, {0})});

  // Feed it every payload type stamped with a stale view id; none may
  // disturb it (no crash, no primary, and its own round-1 send intact).
  const auto feed = [&](PayloadRef<ProtocolPayload> p) {
    p->view_id = 4;
    Message m;
    m.protocol = std::move(p);
    (void)alg->incoming_message(std::move(m), 1);
  };
  auto state = make_payload<StateExchangePayload>();
  state->last_primary = Session{0, ProcessSet::full(4)};
  state->last_formed.assign(4, Session{0, ProcessSet::full(4)});
  feed(state);
  feed(make_payload<AttemptPayload>());
  feed(make_payload<GcRoundPayload>());
  feed(make_payload<Mr1pPendingPayload>());
  feed(make_payload<Mr1pProposePayload>());
  feed(make_payload<Mr1pAttemptPayload>());

  EXPECT_FALSE(alg->in_primary());
}

TEST_P(AlgorithmContract, DebugInfoIsCoherent) {
  const auto alg = fresh();
  const AlgorithmDebugInfo info = alg->debug_info();
  EXPECT_EQ(info.last_primary, alg->last_primary_session());
  EXPECT_EQ(info.last_primary.members, ProcessSet::full(4));
  EXPECT_EQ(info.ambiguous_count, 0u);
  EXPECT_FALSE(info.blocked);
}

/// Forwards to a real algorithm and records whether it had input -- a view,
/// a delivery or a restore -- since its last empty poll.
class InputRecorder final : public test::ForwardingAlgorithm {
 public:
  using ForwardingAlgorithm::ForwardingAlgorithm;

  void view_changed(const View& view) override {
    note_input();
    ForwardingAlgorithm::view_changed(view);
  }
  Message incoming_message(Message message, ProcessId sender) override {
    note_input();
    return ForwardingAlgorithm::incoming_message(std::move(message), sender);
  }
  std::optional<Message> outgoing_message_poll(const Message& app) override {
    ++polls_;
    std::optional<Message> out =
        ForwardingAlgorithm::outgoing_message_poll(app);
    if (!out.has_value()) had_input_ = false;
    return out;
  }
  void load(Decoder& dec) override {
    note_input();
    ForwardingAlgorithm::load(dec);
  }

  bool had_input() const { return had_input_; }
  std::uint64_t inputs() const { return inputs_; }
  std::uint64_t polls() const { return polls_; }
  /// A poll the GCS never sees, which leaves the record alone.
  std::optional<Message> probe() {
    return inner().outgoing_message_poll(Message::empty());
  }
  std::vector<std::byte> state() const {
    Encoder enc;
    inner().save(enc);
    return enc.take();
  }

 private:
  void note_input() {
    had_input_ = true;
    ++inputs_;
  }

  bool had_input_ = true;  // being built is the first input
  std::uint64_t inputs_ = 0;
  std::uint64_t polls_ = 0;
};

std::vector<std::byte> saved(const Gcs& gcs) {
  Encoder enc;
  gcs.save(enc);
  return enc.take();
}

// The simulated GCS polls only processes with input since their last empty
// poll, and the checker and has_primary reuse their answers while the
// world's revision holds.  Both rest on premises checked here after every
// event of cascading N=16 runs, under the geometric model (with and
// without crashes) and the sleepy and repairable models, which crash,
// sleep, wake and repair processes:
//  * a process with no input since an empty poll has nothing to say: a
//    direct poll returns nothing and leaves its state as it was, and no
//    event changes its state until input arrives;
//  * a round polls every live process that had input before its poll
//    phase (a view, an earlier or a just-delivered message);
//  * an event that leaves the revision alone leaves the world's snapshot
//    bytes alone.
TEST_P(AlgorithmContract, PollsFollowInputAndRevisionTracksTheWorld) {
  struct Model {
    const char* name;
    FaultModelKind kind;
    double crash_fraction;
  };
  constexpr Model kModels[] = {
      {"geometric", FaultModelKind::kGeometric, 0.0},
      {"geometric, 25% crashes", FaultModelKind::kGeometric, 0.25},
      {"sleepy", FaultModelKind::kSleepy, 0.0},
      {"repairable", FaultModelKind::kRepairable, 0.0},
  };
  constexpr std::size_t kProcesses = 16;
  for (const Model& model : kModels) {
    SCOPED_TRACE(model.name);
    std::vector<InputRecorder*> recorders;
    SimulationConfig config;
    config.algorithm_factory = [&recorders, kind = GetParam()](
                                   ProcessId self, const View& initial) {
      auto recorder =
          std::make_unique<InputRecorder>(make_algorithm(kind, self, initial));
      recorders.push_back(recorder.get());
      return recorder;
    };
    config.processes = kProcesses;
    config.changes_per_run = 8;
    config.mean_rounds_between_changes = 2.0;
    config.crash_fraction = model.crash_fraction;
    config.fault_model.kind = model.kind;
    config.fault_model.repair_mean_rounds = 3.0;
    config.seed = 20261017;
    Simulation sim(config);
    ASSERT_EQ(recorders.size(), kProcesses);
    const Gcs& gcs = std::as_const(sim).gcs();

    std::size_t events = 0;
    for (int run = 0; run < 4; ++run) {
      for (bool done = false; !done; ++events) {
        SCOPED_TRACE("event " + std::to_string(events));
        const std::uint64_t revision = gcs.revision();
        const std::vector<std::byte> world = saved(gcs);
        const std::uint64_t changes = sim.total_changes();
        std::vector<std::uint64_t> inputs(kProcesses);
        std::vector<std::uint64_t> polls(kProcesses);
        std::vector<std::optional<std::vector<std::byte>>> quiet(kProcesses);
        for (ProcessId p = 0; p < kProcesses; ++p) {
          inputs[p] = recorders[p]->inputs();
          polls[p] = recorders[p]->polls();
          if (!recorders[p]->had_input()) quiet[p] = recorders[p]->state();
        }

        done = sim.run_events(1).has_value();
        const bool round = sim.total_changes() == changes;

        if (gcs.revision() == revision) {
          EXPECT_EQ(saved(gcs), world) << "the revision stood still";
        }
        for (ProcessId p = 0; p < kProcesses; ++p) {
          SCOPED_TRACE("process " + std::to_string(p));
          InputRecorder& rec = *recorders[p];
          if (quiet[p].has_value() && rec.inputs() == inputs[p]) {
            EXPECT_EQ(rec.state(), *quiet[p]) << "changed with no input";
          }
          if (round && !gcs.is_crashed(p)) {
            EXPECT_TRUE(rec.polls() > polls[p] || !rec.had_input())
                << "had input but was not polled";
          }
          if (!rec.had_input()) {
            const std::vector<std::byte> before = rec.state();
            EXPECT_EQ(rec.probe(), std::nullopt);
            EXPECT_EQ(rec.state(), before) << "a quiet poll changed state";
          }
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
    EXPECT_EQ(sim.total_changes(), 4u * config.changes_per_run);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmContract,
                         ::testing::ValuesIn(all_algorithm_kinds()),
                         [](const ::testing::TestParamInfo<AlgorithmKind>& p) {
                           std::string name(to_string(p.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(AlgorithmNames, RoundTrip) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    const auto parsed = algorithm_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(algorithm_kind_from_string("nonsense"), std::nullopt);
}

}  // namespace
}  // namespace dynvote
