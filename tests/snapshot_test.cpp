// The snapshot-equivalence layer: interrupting any simulation at any event,
// round-tripping it through snapshot bytes, and resuming must reproduce the
// uninterrupted execution exactly -- for every algorithm and both sweep
// modes.  Plus envelope hygiene: corrupted, truncated, or version-bumped
// snapshots are rejected with DecodeError, never misread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/payload.hpp"
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

// The headline property: for every algorithm, a run interrupted at a
// pseudo-random event index, serialized, restored into a brand-new
// Simulation, and resumed produces the exact RunResult of the run that was
// never interrupted -- and the restored world keeps producing identical
// runs afterwards (the cascading guarantee).
TEST(Snapshot, InterruptRoundTripResumeReproducesEveryAlgorithm) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    SCOPED_TRACE(to_string(kind));
    const SimulationConfig config = small_config(kind);
    constexpr std::size_t kRuns = 4;  // cascading: later runs inherit state

    Simulation uninterrupted(config);
    std::vector<RunResult> expected;
    for (std::size_t r = 0; r < kRuns; ++r) {
      expected.push_back(uninterrupted.run_once());
    }

    // Interrupt points are seeded per algorithm, not hand-picked.
    Rng salt = Rng::from_raw_seed(
        mix_seed(0xC0FFEEu, static_cast<std::uint64_t>(kind)));
    const std::size_t interrupt_run = salt.below(kRuns);
    const std::size_t interrupt_event = 1 + salt.below(60);

    Simulation original(config);
    std::vector<RunResult> actual;
    for (std::size_t r = 0; r < interrupt_run; ++r) {
      actual.push_back(original.run_once());
    }
    auto early = original.run_events(interrupt_event);

    const std::vector<std::byte> bytes = save_snapshot(original);
    Simulation restored(config);
    restore_snapshot(restored, bytes);

    // Byte determinism: saving the restored world reproduces the snapshot.
    EXPECT_EQ(save_snapshot(restored), bytes);

    if (early.has_value()) {
      actual.push_back(*early);  // the budget outlived the run
    } else {
      EXPECT_TRUE(restored.run_in_progress());
      actual.push_back(finish_run(restored));
    }
    for (std::size_t r = interrupt_run + 1; r < kRuns; ++r) {
      actual.push_back(restored.run_once());
    }

    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t r = 0; r < kRuns; ++r) {
      SCOPED_TRACE("run " + std::to_string(r));
      EXPECT_EQ(actual[r], expected[r]);
    }
    EXPECT_EQ(restored.total_changes(), uninterrupted.total_changes());
    EXPECT_EQ(restored.invariant_checks(), uninterrupted.invariant_checks());
    const WireStats& w0 = uninterrupted.gcs().wire_stats();
    const WireStats& w1 = restored.gcs().wire_stats();
    EXPECT_EQ(w1.messages_sent, w0.messages_sent);
    EXPECT_EQ(w1.protocol_messages_sent, w0.protocol_messages_sent);
    EXPECT_EQ(w1.max_message_bytes, w0.max_message_bytes);
    EXPECT_EQ(w1.total_message_bytes, w0.total_message_bytes);
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

// A snapshot is external bytes.  An in-flight multicast scoped over a
// larger universe than the Gcs has processes would make the next round
// deliver to processes that do not exist, so load must refuse it.  The
// bytes are a real save with its (idle) network section swapped for one
// holding a multicast to {0, 150} of 200 processes.
TEST(Snapshot, InFlightScopeOverAnotherUniverseIsRejected) {
  const auto encoded = [](const auto& part) {
    Encoder enc;
    part.encode(enc);
    return enc.take();
  };
  Gcs gcs(AlgorithmKind::kSimpleMajority, 4);
  Encoder save;
  gcs.save(save);
  const std::vector<std::byte> real = save.take();
  const std::vector<std::byte> topology = encoded(gcs.topology());
  const std::vector<std::byte> idle = encoded(Network());
  ASSERT_TRUE(std::equal(topology.begin(), topology.end(), real.begin()));
  const auto network_at =
      real.begin() + static_cast<std::ptrdiff_t>(topology.size());
  ASSERT_TRUE(std::equal(idle.begin(), idle.end(), network_at));

  Network hostile;
  hostile.send(0, ProcessSet(200, {0, 150}), Message::empty());
  const std::vector<std::byte> network = encoded(hostile);
  std::vector<std::byte> bytes = topology;
  bytes.insert(bytes.end(), network.begin(), network.end());
  bytes.insert(bytes.end(),
               network_at + static_cast<std::ptrdiff_t>(idle.size()),
               real.end());

  Gcs victim(AlgorithmKind::kSimpleMajority, 4);
  Decoder dec(bytes);
  EXPECT_THROW(victim.load(dec), DecodeError);
}

/// A 4-process YKD world whose processes are wrapped in `Decorator`, for
/// saves that a plain YKD world of the same config must refuse.
template <typename Decorator>
SimulationConfig decorated_ykd_config() {
  SimulationConfig config = small_config(AlgorithmKind::kYkd);
  config.processes = 4;
  config.algorithm_factory = [](ProcessId self, const View& initial) {
    return std::make_unique<Decorator>(
        make_algorithm(AlgorithmKind::kYkd, self, initial));
  };
  return config;
}

/// A save of a few events of `decorated_ykd_config<Decorator>()` must not
/// restore into the plain YKD world of the same config, while that world's
/// own save of the same events does.
template <typename Decorator>
void expect_decorated_save_rejected() {
  const SimulationConfig config = decorated_ykd_config<Decorator>();
  Simulation source(config);
  (void)source.run_events(3);
  const std::vector<std::byte> bytes = save_snapshot(source);

  SimulationConfig plain = config;
  plain.algorithm_factory = nullptr;
  Simulation target(plain);
  EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);

  // The same world saved whole restores.
  Simulation whole(plain);
  (void)whole.run_events(3);
  restore_snapshot(target, save_snapshot(whole));
  EXPECT_EQ(save_snapshot(target), save_snapshot(whole));
}

/// Saves its YKD state with the lastFormed table passed through `Rewrite`,
/// a callable (lastPrimary, table) -> void (YkdFamilyBase::save writes
/// lastPrimary, then the table).
template <typename Rewrite>
class RewrittenLastFormed final : public test::ForwardingAlgorithm {
 public:
  using ForwardingAlgorithm::ForwardingAlgorithm;

  void save(Encoder& enc) const override {
    Encoder full;
    ForwardingAlgorithm::save(full);
    const std::size_t n = initial_view().members.universe_size();
    Decoder dec(full.bytes());
    const Session last_primary = Session::decode(dec, n);
    last_primary.encode(enc);
    std::vector<Session> table(dec.get_varint());
    for (Session& entry : table) entry = Session::decode(dec, n);
    Rewrite{}(last_primary, table);
    enc.put_varint(table.size());
    for (const Session& entry : table) entry.encode(enc);
    const std::span<const std::byte> rest =
        std::span(full.bytes()).last(dec.remaining());
    for (std::byte b : rest) enc.put_u8(std::to_integer<std::uint8_t>(b));
  }
};

/// Cuts the table to its first entry.
struct KeepFirstEntry {
  void operator()(const Session&, std::vector<Session>& table) const {
    table.resize(1);
  }
};
using ShortLastFormed = RewrittenLastFormed<KeepFirstEntry>;

/// Sets lastFormed(0) one session past lastPrimary.
struct FormedPastLastPrimary {
  void operator()(const Session& last_primary,
                  std::vector<Session>& table) const {
    table[0] = Session{last_primary.number + 1, last_primary.members};
  }
};
using LastFormedPastLastPrimary = RewrittenLastFormed<FormedPastLastPrimary>;

// A YKD table indexed by process id must have one entry per process.  Run
// with a 1-entry lastFormed table, the next formation would write entry 1.
TEST(Snapshot, ShortLastFormedTableIsRejected) {
  expect_decorated_save_rejected<ShortLastFormed>();
}

// Every lastFormed entry was its holder's lastPrimary when written, and a
// lastPrimary only moves forward.  ACCEPT skips its scan when maxPrimary
// does not follow lastPrimary, which is exact only on such tables.
TEST(Snapshot, LastFormedEntryPastLastPrimaryIsRejected) {
  expect_decorated_save_rejected<LastFormedPastLastPrimary>();
}

/// Saves its YKD state, when it is attempting, with the proposal replaced
/// by lastPrimary (YkdFamilyBase::save's field order), and counts them.
class ProposalAtLastPrimary final : public test::ForwardingAlgorithm {
 public:
  using ForwardingAlgorithm::ForwardingAlgorithm;
  static inline std::size_t forged = 0;

  void save(Encoder& enc) const override {
    Encoder full;
    ForwardingAlgorithm::save(full);
    const std::span<const std::byte> bytes = full.bytes();
    const std::size_t n = initial_view().members.universe_size();
    Decoder dec(bytes);
    const Session last_primary = Session::decode(dec, n);
    for (int table = 0; table < 2; ++table) {  // lastFormed, ambiguous
      const std::uint64_t count = dec.get_varint();
      for (std::uint64_t i = 0; i < count; ++i) (void)Session::decode(dec, n);
    }
    (void)dec.get_varint();  // session counter
    (void)dec.get_bool();    // in_primary
    (void)dec.get_bool();    // blocked
    (void)View::decode(dec, n);
    const bool attempting = dec.get_u8() == 2;
    const std::uint64_t states = dec.get_varint();
    for (std::uint64_t i = 0; i < states; ++i) {
      (void)dec.get_varint();
      (void)dec.get_bytes();
    }
    (void)ProcessSet::decode(dec, n);
    const std::size_t proposal_at = bytes.size() - dec.remaining();
    const Session proposal = Session::decode(dec, n);
    const std::size_t rest_at = bytes.size() - dec.remaining();

    for (std::byte b : bytes.first(proposal_at)) {
      enc.put_u8(std::to_integer<std::uint8_t>(b));
    }
    (attempting ? last_primary : proposal).encode(enc);
    for (std::byte b : bytes.subspan(rest_at)) {
      enc.put_u8(std::to_integer<std::uint8_t>(b));
    }
    if (attempting) ++forged;
  }
};

// A formation must move lastPrimary forward (form_primary asserts it), so
// a restored attempt at a session that does not follow lastPrimary is
// refused when it is decoded, not when the attempt completes.
TEST(Snapshot, AttemptNotPastLastPrimaryIsRejected) {
  const SimulationConfig config = decorated_ykd_config<ProposalAtLastPrimary>();
  Simulation source(config);
  ProposalAtLastPrimary::forged = 0;
  std::vector<std::byte> bytes;
  for (int event = 0; event < 200 && ProposalAtLastPrimary::forged == 0;
       ++event) {
    (void)source.run_events(1);
    bytes = save_snapshot(source);
  }
  ASSERT_GT(ProposalAtLastPrimary::forged, 0u) << "no process attempted";

  SimulationConfig plain = config;
  plain.algorithm_factory = nullptr;
  Simulation target(plain);
  EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);
}

/// Sends every state payload with lastFormed[0] replaced by a session over
/// a 200-process universe that names process 150, and counts them.
class ForeignSession final : public test::ForwardingAlgorithm {
 public:
  using ForwardingAlgorithm::ForwardingAlgorithm;
  static inline std::size_t forged = 0;

  std::optional<Message> outgoing_message_poll(const Message& app) override {
    std::optional<Message> out =
        ForwardingAlgorithm::outgoing_message_poll(app);
    if (out.has_value() && out->has_protocol() &&
        out->protocol->type() == PayloadType::kStateExchange) {
      auto state = make_payload<StateExchangePayload>(
          static_cast<const StateExchangePayload&>(*out->protocol));
      state->last_formed[0] = Session{7, ProcessSet(200, {0, 150})};
      out->protocol = std::move(state);
      ++forged;
    }
    return out;
  }
};

// A state payload in flight is decoded into the restored world.  Delivered
// to process 0, its foreign lastFormed[0] would win ACCEPT, and adopting it
// would write entry 150 of a 4-entry table.
TEST(Snapshot, InFlightForeignSessionIsRejected) {
  const SimulationConfig config = decorated_ykd_config<ForeignSession>();
  Simulation source(config);
  ForeignSession::forged = 0;
  for (int event = 0; event < 200 && ForeignSession::forged == 0; ++event) {
    (void)source.run_events(1);
  }
  ASSERT_GT(ForeignSession::forged, 0u) << "no state exchange was sent";
  const std::vector<std::byte> bytes = save_snapshot(source);

  SimulationConfig plain = config;
  plain.algorithm_factory = nullptr;
  Simulation target(plain);
  EXPECT_THROW(restore_snapshot(target, bytes), DecodeError);
}

// The algorithms that evaluate a view's exchange once and share the verdict
// through the lowest member's round-1 payload (core/ykd_family.hpp).
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

// Sharing a view's verdict never changes results.  In the simulated GCS
// every member completing a view holds the same payload objects, so the
// first to complete computes the verdict and the rest reuse it.  A world
// restored from a snapshot holds only freshly decoded payloads, with no
// verdict attached to any of them.  Restored mid-exchange, with an
// ambiguous session pending and the processes disagreeing on the last
// primary, it must stay byte-identical to the world that was never
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

// The other side of the same argument: a member holding private copies of
// the view's states -- what a real transport delivers, one decoded copy per
// recipient -- finds no shared verdict and computes its own, which must
// equal the shared one.  From a world with pending sessions and divergent
// histories, views -- each current component, each union of two, and
// random memberships -- run one more exchange by hand in two copies of the
// world: one delivers every state as a single shared object, the other as
// a decoded copy per recipient.  Every member's state must match after
// every round.
TEST(Snapshot, PrivatePayloadCopiesDecideLikeSharedOnes) {
  using World = std::vector<std::unique_ptr<PrimaryComponentAlgorithm>>;
  for (AlgorithmKind kind : kSharedVerdictKinds) {
    SCOPED_TRACE(to_string(kind));
    const SimulationConfig config = turbulent_config(kind);
    Simulation history(config);
    ASSERT_TRUE(advance_to_divergent_exchange(history));

    const Gcs& gcs = history.gcs();
    const View initial{1, ProcessSet::full(config.processes)};
    const auto clone = [&]() {
      World world;
      for (ProcessId p = 0; p < config.processes; ++p) {
        Encoder enc;
        gcs.algorithm(p).save(enc);
        const std::vector<std::byte> bytes = enc.take();
        Decoder dec(bytes);
        world.push_back(make_algorithm(kind, p, initial));
        world.back()->load(dec);
      }
      return world;
    };
    // One message round among `members`: every poll, then every delivery.
    const auto round = [](World& world, const ProcessSet& members,
                          bool private_copies) {
      std::vector<std::pair<ProcessId, Message>> sent;
      members.for_each([&](ProcessId p) {
        if (auto out = world[p]->outgoing_message_poll(Message::empty())) {
          sent.emplace_back(p, std::move(*out));
        }
      });
      for (const auto& [sender, message] : sent) {
        members.for_each([&](ProcessId r) {
          (void)world[r]->incoming_message(
              private_copies ? Message::parse(message.serialize(),
                                              members.universe_size())
                             : message,
              sender);
        });
      }
      return !sent.empty();
    };

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
      World shared = clone();
      World copied = clone();
      const View view{next_id, members};
      members.for_each([&](ProcessId p) {
        shared[p]->view_changed(view);
        copied[p]->view_changed(view);
      });
      for (int r = 0; r < 8; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        const bool active = round(shared, members, false);
        EXPECT_EQ(round(copied, members, true), active);
        std::vector<ProcessId> diverged;
        members.for_each([&](ProcessId p) {
          Encoder a;
          Encoder b;
          shared[p]->save(a);
          copied[p]->save(b);
          if (a.take() != b.take()) diverged.push_back(p);
        });
        EXPECT_EQ(diverged, std::vector<ProcessId>{});
        if (!active) break;
      }
    }
  }
}

// A restored world replays view ids.  A verdict cached in a timeline the
// restore discarded must not be reused when its view id comes back naming
// other members: here id k first names the majority {0..5}, which forms,
// and after the rewind names the minority {0,1}, which must not.
TEST(Snapshot, RewoundGcsNeverReusesADiscardedVerdict) {
  for (AlgorithmKind kind : kSharedVerdictKinds) {
    SCOPED_TRACE(to_string(kind));
    Gcs rewound(kind, 8);
    Encoder enc;
    rewound.save(enc);
    const std::vector<std::byte> bytes = enc.take();
    rewound.apply_partition(0, ProcessSet(8, {6, 7}));
    while (rewound.step_round()) {
    }
    ASSERT_TRUE(rewound.algorithm(0).in_primary());

    Gcs fresh(kind, 8);
    for (Gcs* gcs : {&rewound, &fresh}) {
      Decoder dec(bytes);
      gcs->load(dec);
      dec.finish();
      gcs->apply_partition(0, ProcessSet(8, {2, 3, 4, 5, 6, 7}));
      while (gcs->step_round()) {
      }
    }
    EXPECT_FALSE(rewound.algorithm(0).in_primary());
    Encoder a;
    Encoder b;
    rewound.save(a);
    fresh.save(b);
    EXPECT_EQ(a.take(), b.take());
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

}  // namespace
}  // namespace dynvote
