// The algorithm-to-application contract (thesis §2.1), enforced uniformly
// across every algorithm: payload stripping, app-data preservation,
// event-driven quiescence (state changes only on new information), and
// stale-view hygiene -- plus the premises the simulated GCS's
// input-driven polls and unchanged-world memos rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/algorithm.hpp"
#include "gcs/gcs.hpp"
#include "sim/driver.hpp"
#include "sim_test_util.hpp"

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
  // Every payload type, stamped with a stale view id.
  std::vector<Message> stale;
  const auto add = [&](PayloadRef<ProtocolPayload> p) {
    p->view_id = 4;
    stale.emplace_back().protocol = std::move(p);
  };
  auto state = make_payload<StateExchangePayload>();
  state->last_primary = Session{0, ProcessSet::full(4)};
  state->last_formed.assign(4, Session{0, ProcessSet::full(4)});
  add(state);
  add(make_payload<AttemptPayload>());
  add(make_payload<GcRoundPayload>());
  add(make_payload<Mr1pPendingPayload>());
  add(make_payload<Mr1pProposePayload>());
  add(make_payload<Mr1pAttemptPayload>());

  // None may disturb a process in a singleton view (no crash, no primary,
  // its own round-1 send intact), whichever entry point it comes through.
  // No algorithm may consider a singleton view primary without a protocol
  // exchange (and simple majority: 1 of 4 is no quorum).
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "incoming_messages" : "incoming_message");
    const auto alg = fresh();
    alg->view_changed(View{5, ProcessSet(4, {0})});
    if (batched) {
      std::vector<Delivery> batch;
      for (const Message& m : stale) batch.push_back(Delivery{1, &m});
      alg->incoming_messages(batch);
    } else {
      for (const Message& m : stale) (void)alg->incoming_message(m, 1);
    }
    EXPECT_FALSE(alg->in_primary());
  }
}

TEST_P(AlgorithmContract, DebugInfoIsCoherent) {
  const auto alg = fresh();
  const AlgorithmDebugInfo info = alg->debug_info();
  EXPECT_EQ(info.last_primary, alg->last_primary_session());
  EXPECT_EQ(info.last_primary.members, ProcessSet::full(4));
  EXPECT_EQ(info.ambiguous_count, 0u);
  EXPECT_FALSE(info.blocked);
}

/// Forwards to a real algorithm and records whether it had input -- a view
/// or a delivery -- since its last empty poll, and what it sent.
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
    if (out.has_value()) {
      sends_.push_back(out->serialize());
    } else {
      had_input_ = false;
    }
    return out;
  }

  bool had_input() const { return had_input_; }
  std::uint64_t inputs() const { return inputs_; }
  std::uint64_t polls() const { return polls_; }
  /// A poll the GCS never sees, which leaves the record alone.
  std::optional<Message> probe() {
    return inner().outgoing_message_poll(Message::empty());
  }
  /// What the process multicast since the last call, serialized.
  std::vector<std::vector<std::byte>> take_sends() {
    return std::exchange(sends_, {});
  }

 private:
  void note_input() {
    had_input_ = true;
    ++inputs_;
  }

  bool had_input_ = true;  // being built is the first input
  std::uint64_t inputs_ = 0;
  std::uint64_t polls_ = 0;
  std::vector<std::vector<std::byte>> sends_;
};

/// `config` with every instance of `kind` wrapped in an InputRecorder,
/// appended to `recorders` as it is built.
SimulationConfig recorded(SimulationConfig config, AlgorithmKind kind,
                          std::vector<InputRecorder*>& recorders) {
  config.algorithm_factory = [&recorders, kind](ProcessId self,
                                                const View& initial) {
    auto recorder =
        std::make_unique<InputRecorder>(make_algorithm(kind, self, initial));
    recorders.push_back(recorder.get());
    return recorder;
  };
  return config;
}

/// The fault models the whole-world cases below run under: the geometric
/// model with and without crashes, and the sleepy and repairable models,
/// which crash, sleep, wake and repair processes.
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

/// A busy N=16 world under `model`: 8 changes per run, 2 rounds apart.
SimulationConfig busy_world(const Model& model) {
  SimulationConfig config;
  config.processes = kProcesses;
  config.changes_per_run = 8;
  config.mean_rounds_between_changes = 2.0;
  config.crash_fraction = model.crash_fraction;
  config.fault_model.kind = model.kind;
  config.fault_model.repair_mean_rounds = 3.0;
  config.seed = 20261017;
  return config;
}

// The simulated GCS polls only processes with input since their last empty
// poll, and the checker and has_primary reuse their answers while the
// world's revision holds.  Both rest on premises checked here after every
// event of cascading N=16 runs, under the geometric model (with and
// without crashes) and the sleepy and repairable models, which crash,
// sleep, wake and repair processes:
//  * a process with no input since an empty poll has nothing to say: a
//    direct poll returns nothing and changes nothing.  A lockstep twin of
//    the world probes every such process before each event, and must
//    still agree with the world after it on the run's result and on every
//    process's state, view and sends;
//  * no event changes such a process until input arrives;
//  * a round polls every live process that had input before its poll
//    phase (a view, an earlier or a just-delivered message);
//  * an event that leaves the revision alone leaves everything the checker
//    and has_primary read alone.
TEST_P(AlgorithmContract, PollsFollowInputAndRevisionTracksTheWorld) {
  for (const Model& model : kModels) {
    SCOPED_TRACE(model.name);
    std::vector<InputRecorder*> recorders;
    std::vector<InputRecorder*> twin_recorders;
    Simulation sim(recorded(busy_world(model), GetParam(), recorders));
    Simulation twin(recorded(busy_world(model), GetParam(), twin_recorders));
    ASSERT_EQ(recorders.size(), kProcesses);
    ASSERT_EQ(twin_recorders.size(), kProcesses);
    const Gcs& gcs = std::as_const(sim).gcs();
    const Gcs& twin_gcs = std::as_const(twin).gcs();

    std::size_t events = 0;
    for (int run = 0; run < 4; ++run) {
      for (bool done = false; !done; ++events) {
        SCOPED_TRACE("event " + std::to_string(events));
        const std::uint64_t revision = gcs.revision();
        const test::WorldReading world = test::reading(gcs);
        const std::uint64_t changes = sim.total_changes();
        std::vector<std::uint64_t> inputs(kProcesses);
        std::vector<std::uint64_t> polls(kProcesses);
        std::vector<bool> quiet(kProcesses);
        for (ProcessId p = 0; p < kProcesses; ++p) {
          inputs[p] = recorders[p]->inputs();
          polls[p] = recorders[p]->polls();
          quiet[p] = !recorders[p]->had_input();
          if (!twin_recorders[p]->had_input()) {
            EXPECT_EQ(twin_recorders[p]->probe(), std::nullopt)
                << "process " << p << " spoke with no input";
          }
        }

        const std::optional<RunResult> result = sim.run_events(1);
        EXPECT_EQ(twin.run_events(1), result);
        done = result.has_value();
        const bool round = sim.total_changes() == changes;

        if (gcs.revision() == revision) {
          EXPECT_EQ(test::reading(gcs), world) << "the revision stood still";
        }
        for (ProcessId p = 0; p < kProcesses; ++p) {
          SCOPED_TRACE("process " + std::to_string(p));
          InputRecorder& rec = *recorders[p];
          if (quiet[p] && rec.inputs() == inputs[p]) {
            EXPECT_EQ(test::reading(gcs, p), world.processes[p])
                << "changed with no input";
          }
          if (round && !gcs.is_crashed(p)) {
            EXPECT_TRUE(rec.polls() > polls[p] || !rec.had_input())
                << "had input but was not polled";
          }
          EXPECT_EQ(test::reading(twin_gcs, p), test::reading(gcs, p))
              << "a probe changed the twin";
          EXPECT_EQ(twin_recorders[p]->take_sends(), rec.take_sends())
              << "a probe changed the twin's sends";
        }
        if (::testing::Test::HasFailure()) return;
      }
    }
    EXPECT_EQ(sim.total_changes(), 4u * busy_world(model).changes_per_run);
  }
}

/// An event's result (a finished run's, or none mid-run), or what the
/// invariant checker threw.
using EventOutcome = std::variant<std::optional<RunResult>, std::string>;

EventOutcome run_event(Simulation& sim) {
  try {
    return sim.run_events(1);
  } catch (const InvariantViolation& e) {
    return std::string(e.what());
  }
}

// The simulated GCS hands each batch to its recipients together, through
// incoming_messages_to_group, and an algorithm may receive its tallied
// rounds once for the whole group (the YKD family and MR1p do) or per
// member (the default, which calls incoming_messages, which the YKD family
// and MR1p implement themselves).  Whichever path a message takes, every process must end in
// the same state: a world whose instances are wrapped in a pass-through
// decorator, which keeps the defaults and so sends every message down the
// per-member, per-message incoming_message path, must match the plain
// world after every event of a long cascade -- in the run's result, in
// everything the checker and has_primary read of each process, and in the
// messages sent -- so no divergence can heal unseen before a run ends.
// (DFLS forks the primary chain in long N=16 cascades, ROADMAP item 1: both
// worlds must then fail alike, at the same event, which ends the cascade.)
TEST_P(AlgorithmContract, BatchAndPerMessageDeliveryAgree) {
  constexpr int kRuns = 200;
  for (const Model& model : kModels) {
    SCOPED_TRACE(model.name);
    SimulationConfig plain_config = busy_world(model);
    plain_config.algorithm = GetParam();
    SimulationConfig wrapped_config = busy_world(model);
    wrapped_config.algorithm_factory = [kind = GetParam()](
                                           ProcessId self,
                                           const View& initial) {
      return std::make_unique<test::ForwardingAlgorithm>(
          make_algorithm(kind, self, initial));
    };
    Simulation plain(plain_config);
    Simulation wrapped(wrapped_config);
    const Gcs& plain_gcs = std::as_const(plain).gcs();
    const Gcs& wrapped_gcs = std::as_const(wrapped).gcs();
    bool failed = false;
    for (int run = 0; run < kRuns && !failed; ++run) {
      SCOPED_TRACE("run " + std::to_string(run));
      for (std::size_t event = 0;; ++event) {
        const EventOutcome outcome = run_event(plain);
        ASSERT_EQ(outcome, run_event(wrapped)) << "event " << event;
        ASSERT_EQ(test::reading(plain_gcs), test::reading(wrapped_gcs))
            << "event " << event;
        ASSERT_EQ(plain_gcs.wire_stats().messages_sent,
                  wrapped_gcs.wire_stats().messages_sent)
            << "event " << event;
        failed = std::holds_alternative<std::string>(outcome);
        if (failed || std::get<std::optional<RunResult>>(outcome)) break;
      }
      ASSERT_EQ(plain_gcs.deliveries(), wrapped_gcs.deliveries());
      ASSERT_EQ(plain.invariant_checks(), wrapped.invariant_checks());
    }
    if (GetParam() != AlgorithmKind::kSimpleMajority) {  // it sends nothing
      EXPECT_GT(plain_gcs.deliveries(), 0u);
    }
  }
}

/// Everything a restarted world and a new one must agree on after each
/// event, beside the event's outcome.
struct WorldCounters {
  test::WorldReading reading;
  std::vector<ProcessSet> components;
  std::uint64_t revision = 0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t invariant_checks = 0;

  bool operator==(const WorldCounters&) const = default;
};

WorldCounters counters(const Simulation& sim) {
  const Gcs& gcs = sim.gcs();
  return {test::reading(gcs),       gcs.topology().components(),
          gcs.revision(),           sim.events(),
          gcs.deliveries(),         gcs.wire_stats().messages_sent,
          sim.invariant_checks()};
}

// A fresh-start shard builds one world and restarts it before each later
// run (Simulation::restart), so a restarted world must run exactly as a
// world built for the same seed: the same outcome and the same readings
// after every event, over one run at each of 50 seeds under every model.
// The crash, sleepy and repairable models end some runs with processes
// dead or asleep, which the restart must bring back.  The second pass
// wraps every instance in a decorator that keeps restart()'s default, so
// the Gcs rebuilds each process through its factory instead.
TEST_P(AlgorithmContract, RestartedWorldRunsLikeANewOne) {
  constexpr std::uint64_t kSeeds = 50;
  for (const bool rebuilt : {false, true}) {
    SCOPED_TRACE(rebuilt ? "rebuilt by the factory" : "restarted in place");
    for (const Model& model : kModels) {
      SCOPED_TRACE(model.name);
      SimulationConfig config = busy_world(model);
      config.algorithm = GetParam();
      if (rebuilt) {
        config.algorithm_factory = [kind = GetParam()](ProcessId self,
                                                       const View& initial) {
          return std::make_unique<test::ForwardingAlgorithm>(
              make_algorithm(kind, self, initial));
        };
      }
      Simulation restarted(config);
      (void)restarted.run_once();
      std::uint64_t ended_inactive = 0;
      bool failed = false;
      for (std::uint64_t seed = 1; seed <= kSeeds && !failed; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        if (!restarted.gcs().crashed().empty()) ++ended_inactive;
        restarted.restart(seed);
        config.seed = seed;
        Simulation fresh(config);
        ASSERT_EQ(restarted.config().seed, seed);
        ASSERT_EQ(counters(restarted), counters(fresh)) << "after the restart";
        for (std::size_t event = 0;; ++event) {
          const EventOutcome outcome = run_event(restarted);
          ASSERT_EQ(outcome, run_event(fresh)) << "event " << event;
          ASSERT_EQ(counters(restarted), counters(fresh)) << "event " << event;
          // A failed run stays paused, and a paused world is not restarted.
          failed = std::holds_alternative<std::string>(outcome);
          if (failed || std::get<std::optional<RunResult>>(outcome)) break;
        }
      }
      if (model.kind != FaultModelKind::kGeometric ||
          model.crash_fraction > 0.0) {
        EXPECT_GT(ended_inactive, 0u) << "no run left a process inactive";
      }
    }
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
