// Snapshots as replay points: interrupting any simulation at any event,
// saving where it stands, and replaying it into a brand-new Simulation
// must reproduce the uninterrupted execution exactly -- for every
// algorithm, every fault model and both sweep modes.  Plus envelope
// hygiene: corrupted, truncated, or version-bumped snapshots are rejected
// with DecodeError before any event runs, and a world that left the
// driver's trajectory is refused after the replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/artifact.hpp"
#include "sim/experiment.hpp"
#include "sim/snapshot.hpp"
#include "sim_test_util.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

SimulationConfig small_config(AlgorithmKind kind) {
  SimulationConfig config;
  config.algorithm = kind;
  config.processes = 16;
  config.changes_per_run = 5;
  config.mean_rounds_between_changes = 3.0;
  config.seed = 20260806;
  config.measure_wire_sizes = true;  // wire counters must survive restore too
  return config;
}

/// Drive `sim` to completion of its current (possibly mid-flight) run.
RunResult finish_run(Simulation& sim) {
  auto result = sim.run_events(std::size_t(-1));
  EXPECT_TRUE(result.has_value());
  return *result;
}

constexpr FaultModelKind kFaultModels[] = {
    FaultModelKind::kGeometric, FaultModelKind::kSleepy,
    FaultModelKind::kRepairable, FaultModelKind::kTrace};

FaultModelParams cross_model_params(FaultModelKind kind) {
  FaultModelParams params;
  params.kind = kind;
  if (kind == FaultModelKind::kRepairable) {
    params.repair_capacity = 2;
    params.repair_mean_rounds = 6.0;
  }
  if (kind == FaultModelKind::kTrace) {
    params.trace_json = R"({
      "schema": "dynvote.trace.v1", "processes": 16,
      "events": [
        {"at": 2,  "kind": "partition", "moved": [3, 4, 5]},
        {"at": 6,  "kind": "crash",     "process": 9},
        {"at": 11, "kind": "merge",     "of": [0, 3]},
        {"at": 15, "kind": "recovery",  "process": 9},
        {"at": 19, "kind": "partition", "moved": [1]}
      ]
    })";
  }
  return params;
}

/// A world built for another seed that ran a run, then restarted to
/// `config`'s seed (Simulation::restart): it has run no event since, and
/// must read as Simulation(config).
std::unique_ptr<Simulation> restarted_world(const SimulationConfig& config) {
  SimulationConfig other = config;
  other.seed = config.seed + 1;
  auto sim = std::make_unique<Simulation>(other);
  (void)sim->run_once();
  sim->restart(config.seed);
  return sim;
}

// The headline property: for every algorithm under every fault model, a
// world saved between runs or at a pseudo-random event mid-run, restored
// into a brand-new Simulation, and resumed produces the exact RunResults
// of the world that was never interrupted -- and the restored world keeps
// producing identical runs afterwards (the cascading guarantee), with the
// same invariant checks, deliveries and wire counters.  A world restarted
// to the config's seed saves the same replay point mid-run, which restores
// both into a new world and into a restarted one that has run no event:
// the restart resets config().seed, events() and revision() with the rest.
TEST(Snapshot, InterruptRoundTripResumeReproducesEveryAlgorithm) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    for (FaultModelKind model : kFaultModels) {
      SCOPED_TRACE(std::string(to_string(kind)) + " under " +
                   to_string(model));
      SimulationConfig config = small_config(kind);
      config.fault_model = cross_model_params(model);
      constexpr std::size_t kRuns = 4;  // cascading: later runs inherit state

      Simulation uninterrupted(config);
      std::vector<RunResult> expected;
      for (std::size_t r = 0; r < kRuns; ++r) {
        expected.push_back(uninterrupted.run_once());
      }

      // Interrupt points are seeded per case, not hand-picked; the first
      // falls between runs.
      Rng salt = Rng::from_raw_seed(
          mix_seed(0xC0FFEEu, static_cast<std::uint64_t>(kind),
                   static_cast<std::uint64_t>(model)));
      struct Interrupt {
        const char* name;
        bool mid_run;
        bool restarted;
      };
      for (const Interrupt interrupt :
           {Interrupt{"between runs", false, false},
            Interrupt{"mid-run", true, false},
            Interrupt{"mid-run on a restarted world", true, true}}) {
        SCOPED_TRACE(interrupt.name);
        const std::size_t interrupt_run = 1 + salt.below(kRuns - 1);
        const std::unique_ptr<Simulation> original =
            interrupt.restarted ? restarted_world(config)
                                : std::make_unique<Simulation>(config);
        std::vector<RunResult> prefix;
        for (std::size_t r = 0; r < interrupt_run; ++r) {
          prefix.push_back(original->run_once());
        }
        std::optional<RunResult> early;
        if (interrupt.mid_run) early = original->run_events(1 + salt.below(60));

        const std::vector<std::byte> bytes = save_snapshot(*original);
        std::vector<std::unique_ptr<Simulation>> targets;
        targets.push_back(std::make_unique<Simulation>(config));
        if (interrupt.restarted) targets.push_back(restarted_world(config));
        for (const std::unique_ptr<Simulation>& target : targets) {
          SCOPED_TRACE(target == targets.front()
                           ? "restored into a new world"
                           : "restored into a restarted one");
          Simulation& restored = *target;
          std::vector<RunResult> actual = prefix;
          restore_snapshot(restored, bytes);
          // Byte determinism: saving the restored world reproduces the
          // snapshot.
          EXPECT_EQ(save_snapshot(restored), bytes);
          EXPECT_EQ(restored.run_in_progress(), original->run_in_progress());
          // It has run events now, so it takes no second restore.
          EXPECT_THROW(restore_snapshot(restored, bytes),
                       PreconditionViolation);

          std::size_t next_run = interrupt_run;
          if (early.has_value()) {
            actual.push_back(*early);  // the budget outlived the run
            ++next_run;
          } else if (restored.run_in_progress()) {
            actual.push_back(finish_run(restored));
            ++next_run;
          }
          for (std::size_t r = next_run; r < kRuns; ++r) {
            actual.push_back(restored.run_once());
          }

          ASSERT_EQ(actual.size(), expected.size());
          for (std::size_t r = 0; r < kRuns; ++r) {
            SCOPED_TRACE("run " + std::to_string(r));
            EXPECT_EQ(actual[r], expected[r]);
          }
          EXPECT_EQ(save_snapshot(restored), save_snapshot(uninterrupted));
          EXPECT_EQ(restored.total_changes(), uninterrupted.total_changes());
          EXPECT_EQ(restored.invariant_checks(),
                    uninterrupted.invariant_checks());
          EXPECT_EQ(restored.gcs().deliveries(),
                    uninterrupted.gcs().deliveries());
          const WireStats& w0 = uninterrupted.gcs().wire_stats();
          const WireStats& w1 = restored.gcs().wire_stats();
          EXPECT_EQ(w1.messages_sent, w0.messages_sent);
          EXPECT_EQ(w1.protocol_messages_sent, w0.protocol_messages_sent);
          EXPECT_EQ(w1.max_message_bytes, w0.max_message_bytes);
          EXPECT_EQ(w1.total_message_bytes, w0.total_message_bytes);
        }
      }
    }
  }
}

// Fresh-start mode is the single-run special case: interrupt the one run
// at many different event indices and resume each time.
TEST(Snapshot, FreshStartInterruptAtManyEventIndices) {
  const SimulationConfig config = small_config(AlgorithmKind::kYkd);
  Simulation uninterrupted(config);
  const RunResult expected = uninterrupted.run_once();

  for (std::size_t events : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    SCOPED_TRACE(events);
    Simulation original(config);
    auto early = original.run_events(events);
    Simulation restored(config);
    restore_snapshot(restored, save_snapshot(original));
    const RunResult actual = early.has_value() ? *early : finish_run(restored);
    EXPECT_EQ(actual, expected);
  }
}

// A snapshot taken between runs (no run in progress) restores cleanly too.
TEST(Snapshot, BetweenRunsSnapshotResumesTheCascade) {
  const SimulationConfig config = small_config(AlgorithmKind::kDfls);
  Simulation uninterrupted(config);
  (void)uninterrupted.run_once();
  const RunResult expected = uninterrupted.run_once();

  Simulation original(config);
  (void)original.run_once();
  EXPECT_FALSE(original.run_in_progress());
  Simulation restored(config);
  restore_snapshot(restored, save_snapshot(original));
  EXPECT_FALSE(restored.run_in_progress());
  EXPECT_EQ(restored.run_once(), expected);
}

// The scout/shard contract: a snapshot produced with all observability off
// restores into a fully-instrumented simulation (the config hash excludes
// those flags) and the instrumented replay matches an instrumented run.
TEST(Snapshot, ScoutSnapshotRestoresIntoInstrumentedSimulation) {
  SimulationConfig instrumented = small_config(AlgorithmKind::kMr1p);
  SimulationConfig scout = instrumented;
  scout.check_invariants = false;
  scout.measure_wire_sizes = false;

  Simulation reference(instrumented);
  (void)reference.run_once();
  const RunResult expected = reference.run_once();

  Simulation scouting(scout);
  (void)scouting.run_once();

  Simulation resumed(instrumented);
  restore_snapshot(resumed, save_snapshot(scouting));
  EXPECT_EQ(resumed.run_once(), expected);
  // The replay ran the prefix checked, so the resumed world carries the
  // whole checker history.
  EXPECT_EQ(resumed.invariant_checks(), reference.invariant_checks());
}

TEST(Snapshot, TruncatedBytesThrow) {
  Simulation sim(small_config(AlgorithmKind::kYkd));
  (void)sim.run_events(10);
  std::vector<std::byte> bytes = save_snapshot(sim);
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    SCOPED_TRACE(keep);
    std::vector<std::byte> cut(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(keep));
    Simulation target(small_config(AlgorithmKind::kYkd));
    EXPECT_THROW(restore_snapshot(target, cut), DecodeError);
  }
}

TEST(Snapshot, TrailingGarbageThrows) {
  Simulation sim(small_config(AlgorithmKind::kYkd));
  (void)sim.run_events(10);
  std::vector<std::byte> bytes = save_snapshot(sim);
  bytes.push_back(std::byte{0x5a});
  Simulation target(small_config(AlgorithmKind::kYkd));
  EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);
}

TEST(Snapshot, VersionBumpedSchemaIsRejected) {
  Simulation sim(small_config(AlgorithmKind::kYkd));
  std::vector<std::byte> bytes = save_snapshot(sim);
  // put_string writes a varint length then the characters; the schema is
  // the first field, so its trailing version digit sits at offset 1+len-1.
  const std::size_t version_digit = kSnapshotSchema.size();
  ASSERT_EQ(static_cast<char>(bytes.at(version_digit)), kSnapshotSchema.back());
  bytes.at(version_digit) = std::byte{static_cast<unsigned char>(
      kSnapshotSchema.back() + 1)};
  Simulation target(small_config(AlgorithmKind::kYkd));
  EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);
}

TEST(Snapshot, BytesDoNotNameTheBuild) {
  // The same world saves the same bytes from any checkout of the same
  // source, whatever git says about it.
  Simulation sim(small_config(AlgorithmKind::kYkd));
  (void)sim.run_once();
  const std::vector<std::byte> bytes = save_snapshot(sim);
  const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size());
  const std::string_view build = artifact_git_describe();
  ASSERT_FALSE(build.empty());
  EXPECT_EQ(text.find(build), std::string_view::npos) << build;
}

TEST(Snapshot, AlgorithmMismatchIsRejected) {
  Simulation ykd(small_config(AlgorithmKind::kYkd));
  const std::vector<std::byte> bytes = save_snapshot(ykd);
  Simulation dfls(small_config(AlgorithmKind::kDfls));
  EXPECT_THROW(restore_snapshot(dfls, bytes), DecodeError);
}

TEST(Snapshot, TrajectoryConfigMismatchIsRejected) {
  Simulation sim(small_config(AlgorithmKind::kYkd));
  const std::vector<std::byte> bytes = save_snapshot(sim);

  SimulationConfig other_seed = small_config(AlgorithmKind::kYkd);
  other_seed.seed ^= 1;
  Simulation target_seed(other_seed);
  EXPECT_THROW(restore_snapshot(target_seed, bytes), DecodeError);

  SimulationConfig other_rate = small_config(AlgorithmKind::kYkd);
  other_rate.mean_rounds_between_changes += 1.0;
  Simulation target_rate(other_rate);
  EXPECT_THROW(restore_snapshot(target_rate, bytes), DecodeError);
}

TEST(Snapshot, ConfigHashIgnoresObservabilityFlags) {
  SimulationConfig a = small_config(AlgorithmKind::kYkd);
  SimulationConfig b = a;
  b.check_invariants = !b.check_invariants;
  b.measure_wire_sizes = !b.measure_wire_sizes;
  EXPECT_EQ(config_trajectory_hash(a), config_trajectory_hash(b));

  SimulationConfig c = a;
  c.changes_per_run += 1;
  EXPECT_NE(config_trajectory_hash(a), config_trajectory_hash(c));
}

// Every non-geometric model carries live mid-flight state (a sleeper set,
// a repair queue with due times, a replay cursor).  Interrupting at many
// event indices must round-trip that state bit-identically: the snapshot
// restores byte-for-byte and the resumed run matches the uninterrupted
// one.  (The geometric model is covered by every other test in this file.)
TEST(Snapshot, FaultModelMidFlightRoundTripsBitIdentically) {
  for (FaultModelKind model :
       {FaultModelKind::kSleepy, FaultModelKind::kRepairable,
        FaultModelKind::kTrace}) {
    SCOPED_TRACE(to_string(model));
    SimulationConfig config = small_config(AlgorithmKind::kYkd);
    config.fault_model = cross_model_params(model);

    Simulation uninterrupted(config);
    const RunResult expected = uninterrupted.run_once();

    bool saw_inactive = false;
    for (std::size_t events : {2u, 4u, 7u, 11u, 16u, 23u}) {
      SCOPED_TRACE(events);
      Simulation original(config);
      auto early = original.run_events(events);
      saw_inactive = saw_inactive || original.gcs().crashed().count() > 0;

      const std::vector<std::byte> bytes = save_snapshot(original);
      Simulation restored(config);
      restore_snapshot(restored, bytes);
      EXPECT_EQ(save_snapshot(restored), bytes);

      const RunResult actual =
          early.has_value() ? *early : finish_run(restored);
      EXPECT_EQ(actual, expected);
    }
    // The interrupt sweep must have caught the interesting moment at least
    // once: a snapshot taken while some process was out (mid-sleep,
    // mid-repair-queue, mid-outage) -- otherwise the round-trip above
    // never exercised the model's live state.
    EXPECT_TRUE(saw_inactive);
  }
}

// A snapshot records which fault model produced it; restoring into a
// simulation running a different model must be rejected, not misread.
TEST(Snapshot, FaultModelMismatchIsRejected) {
  SimulationConfig sleepy = small_config(AlgorithmKind::kYkd);
  sleepy.fault_model.kind = FaultModelKind::kSleepy;
  Simulation original(sleepy);
  (void)original.run_events(5);
  const std::vector<std::byte> bytes = save_snapshot(original);

  Simulation geometric(small_config(AlgorithmKind::kYkd));
  EXPECT_THROW(restore_snapshot(geometric, bytes), DecodeError);
}

// The algorithms that receive a view's round once for a group of its
// members and evaluate its exchange verdict once (core/ykd_family.hpp).
constexpr AlgorithmKind kSharedVerdictKinds[] = {
    AlgorithmKind::kYkd, AlgorithmKind::kYkdUnoptimized, AlgorithmKind::kDfls,
    AlgorithmKind::kOnePending};

/// A config whose runs interrupt formation attempts often enough to leave
/// ambiguous sessions behind.
SimulationConfig turbulent_config(AlgorithmKind kind) {
  SimulationConfig config = small_config(kind);
  config.changes_per_run = 12;
  config.mean_rounds_between_changes = 1.0;
  return config;
}

/// Some process holds an ambiguous session and the processes disagree on
/// the last primary: a view's members then bring different histories to
/// its exchange.
bool has_divergent_history(const Simulation& sim) {
  const Gcs& gcs = sim.gcs();
  bool ambiguous = false;
  bool disagree = false;
  for (ProcessId p = 0; p < gcs.process_count(); ++p) {
    ambiguous = ambiguous || gcs.algorithm(p).debug_info().ambiguous_count > 0;
    disagree = disagree || gcs.algorithm(p).last_primary_session() !=
                               gcs.algorithm(0).last_primary_session();
  }
  return ambiguous && disagree;
}

/// Step `sim` one event at a time, over at most 20 runs, until it is
/// mid-exchange -- the round after a connectivity change, with the new
/// views' states in flight -- with a divergent history.
bool advance_to_divergent_exchange(Simulation& sim) {
  for (int run = 0; run < 20; ++run) {
    bool after_change = false;
    for (;;) {
      const std::uint64_t changes_before = sim.total_changes();
      if (sim.run_events(1).has_value()) break;
      const bool was_change = sim.total_changes() != changes_before;
      if (after_change && !was_change && !sim.gcs().network_idle() &&
          has_divergent_history(sim)) {
        return true;
      }
      after_change = was_change;
    }
  }
  return false;
}

// A world restored mid-exchange -- the round after a connectivity change,
// with an ambiguous session pending and the processes disagreeing on the
// last primary -- must stay in step with the world that was never
// interrupted after every event, to the end of the next run.
TEST(Snapshot, RestoredMidExchangeMatchesSharedVerdictsEveryEvent) {
  for (AlgorithmKind kind : kSharedVerdictKinds) {
    SCOPED_TRACE(to_string(kind));
    const SimulationConfig config = turbulent_config(kind);
    Simulation uninterrupted(config);
    ASSERT_TRUE(advance_to_divergent_exchange(uninterrupted));

    Simulation restored(config);
    restore_snapshot(restored, save_snapshot(uninterrupted));
    for (int run = 0; run < 2; ++run) {
      std::size_t events = 0;
      for (;;) {
        const auto expected = uninterrupted.run_events(1);
        const auto actual = restored.run_events(1);
        ++events;
        ASSERT_EQ(save_snapshot(restored), save_snapshot(uninterrupted))
            << "diverged at event " << events << " of run " << run;
        ASSERT_EQ(actual, expected);
        if (expected.has_value()) break;
      }
    }
  }
}

// Receiving a view's round once for the group never changes results.  The
// simulated GCS hands a batch to its recipients together, and the lowest
// receives it for all of them: one state table, one verdict.  A member
// holding private copies of the view's states -- what a real transport
// delivers, one decoded copy per recipient -- receives and decides for
// itself, and must reach the same state.  From a world with pending
// sessions and divergent histories, views -- each current component, each
// union of two, and random memberships -- run one more exchange by hand in
// two replayed clones of the world: one hands each round's messages to the
// members as one batch in one group call, the other hands each member a
// decoded copy of each message.  Every round's messages and every member's
// state must match.
TEST(Snapshot, PrivatePayloadCopiesDecideLikeSharedOnes) {
  for (AlgorithmKind kind : kSharedVerdictKinds) {
    SCOPED_TRACE(to_string(kind));
    const SimulationConfig config = turbulent_config(kind);
    Simulation history(config);
    ASSERT_TRUE(advance_to_divergent_exchange(history));
    const std::vector<std::byte> point = save_snapshot(history);
    const auto clone = [&]() {
      auto world = std::make_unique<Simulation>(config);
      restore_snapshot(*world, point);
      return world;
    };
    // One message round among `members`, every poll then every delivery,
    // driving the algorithms by hand; returns what was sent, serialized.
    const auto round = [](Simulation& world, const ProcessSet& members,
                          bool private_copies) {
      std::vector<std::pair<ProcessId, Message>> sent;
      members.for_each([&](ProcessId p) {
        if (auto out = world.gcs().algorithm(p).outgoing_message_poll(
                Message::empty())) {
          sent.emplace_back(p, std::move(*out));
        }
      });
      std::vector<std::pair<ProcessId, std::vector<std::byte>>> wire;
      std::vector<Delivery> batch;
      for (const auto& [sender, message] : sent) {
        wire.emplace_back(sender, message.serialize());
        batch.push_back(Delivery{sender, &message});
      }
      if (private_copies) {
        for (const auto& [sender, bytes] : wire) {
          members.for_each([&](ProcessId r) {
            (void)world.gcs().algorithm(r).incoming_message(
                Message::parse(bytes, members.universe_size()), sender);
          });
        }
      } else {
        std::vector<PrimaryComponentAlgorithm*> group;
        members.for_each(
            [&](ProcessId r) { group.push_back(&world.gcs().algorithm(r)); });
        group.front()->incoming_messages_to_group(group, batch);
      }
      return wire;
    };

    const Gcs& gcs = history.gcs();
    const std::vector<ProcessSet>& components = gcs.topology().components();
    std::vector<ProcessSet> views = components;
    for (std::size_t i = 0; i < components.size(); ++i) {
      for (std::size_t j = i + 1; j < components.size(); ++j) {
        views.push_back(components[i].united_with(components[j]));
      }
    }
    // Plus arbitrary memberships, so some view is a subquorum of one
    // member's history but not of another's.
    Rng pick = Rng::from_raw_seed(
        mix_seed(0x5AEEDu, static_cast<std::uint64_t>(kind)));
    while (views.size() < components.size() + 48) {
      ProcessSet members(config.processes);
      for (ProcessId p = 0; p < config.processes; ++p) {
        if (pick.chance(0.4)) members.insert(p);
      }
      if (!members.empty()) views.push_back(std::move(members));
    }
    ViewId next_id = 0;
    for (ProcessId p = 0; p < config.processes; ++p) {
      next_id = std::max(next_id, gcs.view_of(p).id + 1);
    }
    for (const ProcessSet& members : views) {
      SCOPED_TRACE("view " + members.to_string());
      const std::unique_ptr<Simulation> shared = clone();
      const std::unique_ptr<Simulation> copied = clone();
      const View view{next_id, members};
      members.for_each([&](ProcessId p) {
        shared->gcs().algorithm(p).view_changed(view);
        copied->gcs().algorithm(p).view_changed(view);
      });
      for (int r = 0; r < 8; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        const auto sent = round(*shared, members, false);
        EXPECT_EQ(round(*copied, members, true), sent);
        std::vector<ProcessId> diverged;
        members.for_each([&](ProcessId p) {
          const PrimaryComponentAlgorithm& a =
              std::as_const(*shared).gcs().algorithm(p);
          const PrimaryComponentAlgorithm& b =
              std::as_const(*copied).gcs().algorithm(p);
          if (a.in_primary() != b.in_primary() ||
              !(a.debug_info() == b.debug_info())) {
            diverged.push_back(p);
          }
        });
        EXPECT_EQ(diverged, std::vector<ProcessId>{});
        if (sent.empty()) break;
      }
    }
  }
}

// The experiment layer built on snapshots: a cascading case cut into scout
// checkpoints and re-run as shards merges to the exact serial result.
TEST(Snapshot, CascadingShardsMergeToSerialCase) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kYkd, AlgorithmKind::kOnePending}) {
    SCOPED_TRACE(to_string(kind));
    CaseSpec spec;
    spec.algorithm = kind;
    spec.processes = 16;
    spec.changes = 4;
    spec.mean_rounds = 3.0;
    spec.runs = 20;
    spec.mode = RunMode::kCascading;
    spec.base_seed = 424242;
    spec.measure_wire_sizes = true;

    const CaseResult serial = run_case(spec);

    const std::vector<std::uint64_t> boundaries = {7, 13};
    const std::vector<CascadeCheckpoint> checkpoints =
        scout_cascading_case(spec, boundaries);
    ASSERT_EQ(checkpoints.size(), 2u);
    EXPECT_EQ(checkpoints[0].first_run, 7u);
    EXPECT_EQ(checkpoints[1].first_run, 13u);

    CaseResult merged = run_cascading_shard(spec, CascadeCheckpoint{}, 7);
    merged.merge(run_cascading_shard(spec, checkpoints[0], 6));
    merged.merge(run_cascading_shard(spec, checkpoints[1], 7));

    EXPECT_EQ(merged.runs, serial.runs);
    EXPECT_EQ(merged.successes, serial.successes);
    EXPECT_EQ(merged.success_per_run, serial.success_per_run);
    EXPECT_EQ(merged.stable.buckets, serial.stable.buckets);
    EXPECT_EQ(merged.in_progress.buckets, serial.in_progress.buckets);
    EXPECT_EQ(merged.total_rounds, serial.total_rounds);
    EXPECT_EQ(merged.total_changes, serial.total_changes);
    EXPECT_EQ(merged.wire.messages_sent, serial.wire.messages_sent);
    EXPECT_EQ(merged.wire.max_message_bytes, serial.wire.max_message_bytes);
    EXPECT_EQ(merged.wire.total_message_bytes,
              serial.wire.total_message_bytes);
    EXPECT_EQ(merged.invariant_checks, serial.invariant_checks);
  }
}

// A snapshot reads nothing of an algorithm's state, so a world of a
// plugged-in algorithm that keeps its state to itself -- one that does not
// implement save -- round-trips like any other.
TEST(Snapshot, PluggedInAlgorithmWithoutSaveRoundTrips) {
  SimulationConfig config = small_config(AlgorithmKind::kYkd);
  config.algorithm_factory = [](ProcessId self, const View& initial) {
    return std::make_unique<test::ForwardingAlgorithm>(
        make_algorithm(AlgorithmKind::kYkd, self, initial));
  };
  Simulation uninterrupted(config);
  (void)uninterrupted.run_once();
  const RunResult expected = uninterrupted.run_once();

  Simulation original(config);
  (void)original.run_once();
  const std::optional<RunResult> early = original.run_events(7);
  Encoder enc;
  EXPECT_THROW(std::as_const(original).gcs().algorithm(0).save(enc),
               std::logic_error);
  Simulation restored(config);
  restore_snapshot(restored, save_snapshot(original));
  EXPECT_EQ(early.has_value() ? *early : finish_run(restored), expected);
}

// A restore replays the driver's events, so a world moved outside the
// driver -- by a hand-applied partition, or by handing a process out for
// input -- names no point the replay reaches.  Its counters disagree once
// the replay is done, and the restore is refused.
TEST(Snapshot, WorldMovedByHandIsRefused) {
  const SimulationConfig config = small_config(AlgorithmKind::kYkd);
  Simulation partitioned(config);
  partitioned.gcs().apply_partition(0, ProcessSet(config.processes, {15}));
  (void)partitioned.run_events(5);
  Simulation fed(config);
  (void)fed.run_events(5);
  (void)fed.gcs().algorithm(3);

  for (const Simulation* moved : {&partitioned, &fed}) {
    const std::vector<std::byte> bytes = save_snapshot(*moved);
    Simulation target(config);
    EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);
    EXPECT_EQ(target.events(), moved->events());  // refused after replaying
  }
}

// A restore replays into a new world only; one that has run an event is
// refused before the bytes are read.
TEST(Snapshot, RestoreIntoAWorldThatRanIsRefused) {
  const SimulationConfig config = small_config(AlgorithmKind::kYkd);
  Simulation source(config);
  (void)source.run_events(5);
  const std::vector<std::byte> bytes = save_snapshot(source);
  Simulation target(config);
  (void)target.run_events(1);
  EXPECT_THROW(restore_snapshot(target, bytes), PreconditionViolation);
  EXPECT_THROW(restore_snapshot(target, std::vector<std::byte>{}),
               PreconditionViolation);
  EXPECT_EQ(target.events(), 1u);
}

// The checksum covers the event count, so a mutated count is refused
// before any event runs and can never start a long replay.
TEST(Snapshot, MutatedCountIsRefusedBeforeAnyEvent) {
  const SimulationConfig config = small_config(AlgorithmKind::kYkd);
  Simulation source(config);
  (void)source.run_events(5);
  const std::vector<std::byte> bytes = save_snapshot(source);
  // The count follows the schema and algorithm strings (a one-byte length
  // each, then the text) and the 8-byte config hash.
  const std::size_t count_at = 1 + kSnapshotSchema.size() + 1 +
                               std::string_view("ykd").size() + 8;
  ASSERT_EQ(std::to_integer<std::uint64_t>(bytes.at(count_at)), 5u);
  for (const std::byte count : {std::byte{0x7f}, std::byte{0x06}}) {
    std::vector<std::byte> mutant = bytes;
    mutant[count_at] = count;
    Simulation target(config);
    EXPECT_THROW(restore_snapshot(target, mutant), DecodeError);
    EXPECT_EQ(target.events(), 0u);
  }
}

}  // namespace
}  // namespace dynvote
