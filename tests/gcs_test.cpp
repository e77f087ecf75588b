// The simulated group communication service: view installation, round
// execution, quiescence, and wire statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/mr1p.hpp"
#include "core/payload.hpp"
#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dynvote {
namespace {

using test::all_cross;
using test::no_cross;
using test::settle;

TEST(Gcs, InitialViewIsInstalledEverywhere) {
  Gcs gcs(AlgorithmKind::kYkd, 4);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(gcs.view_of(p).id, 1u);
    EXPECT_EQ(gcs.view_of(p).members, ProcessSet::full(4));
    EXPECT_TRUE(gcs.algorithm(p).in_primary());
  }
  EXPECT_TRUE(gcs.has_primary());
}

TEST(Gcs, PartitionInstallsDistinctViewsOnBothSides) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 4);
  gcs.apply_partition(0, ProcessSet(4, {2, 3}));
  EXPECT_EQ(gcs.view_of(0).members, ProcessSet(4, {0, 1}));
  EXPECT_EQ(gcs.view_of(3).members, ProcessSet(4, {2, 3}));
  EXPECT_NE(gcs.view_of(0).id, gcs.view_of(3).id);
  EXPECT_GT(gcs.view_of(0).id, 1u);
}

TEST(Gcs, MergeInstallsOneSharedView) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 4);
  gcs.apply_partition(0, ProcessSet(4, {2, 3}));
  gcs.apply_merge(0, 1);
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(gcs.view_of(p).members, ProcessSet::full(4));
    EXPECT_EQ(gcs.view_of(p).id, gcs.view_of(0).id);
  }
}

TEST(Gcs, ViewIdsAreStrictlyIncreasing) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 4);
  ViewId last = gcs.view_of(0).id;
  gcs.apply_partition(0, ProcessSet(4, {3}));
  EXPECT_GT(gcs.view_of(0).id, last);
  last = gcs.view_of(3).id;
  gcs.apply_merge(0, 1);
  EXPECT_GT(gcs.view_of(0).id, last);
}

TEST(Gcs, StepRoundReportsQuiescence) {
  Gcs gcs(AlgorithmKind::kYkd, 3);
  // Initially quiescent: the initial view needs no protocol work.
  EXPECT_FALSE(gcs.step_round());
  gcs.apply_partition(0, ProcessSet(3, {2}));
  // The partition triggers state exchange: rounds are active...
  EXPECT_TRUE(gcs.step_round());
  settle(gcs);
  // ...until the protocol completes.
  EXPECT_FALSE(gcs.step_round());
}

// A round polls only processes with input since their last empty poll, so
// the revision moves exactly when something may have changed the world.
TEST(Gcs, RevisionMovesOnlyWhenTheWorldMay) {
  Gcs gcs(AlgorithmKind::kYkd, 4);
  std::uint64_t revision = gcs.revision();
  EXPECT_FALSE(gcs.step_round());  // everyone is due once: polls, no sends
  EXPECT_GT(gcs.revision(), revision);
  revision = gcs.revision();
  EXPECT_FALSE(gcs.step_round());  // nobody due, nothing in flight
  EXPECT_EQ(gcs.revision(), revision);

  (void)std::as_const(gcs).algorithm(0).in_primary();  // a read is no input
  EXPECT_EQ(gcs.revision(), revision);
  (void)gcs.algorithm(0);  // handing a process out counts as input
  EXPECT_GT(gcs.revision(), revision);
  revision = gcs.revision();
  EXPECT_FALSE(gcs.step_round());  // so it is polled
  EXPECT_GT(gcs.revision(), revision);

  gcs.apply_crash(3);
  settle(gcs);
  gcs.apply_recovery(3);  // 3 is back, alone
  revision = gcs.revision();
  gcs.apply_crash(3);  // no view installed, but the crash set changed
  EXPECT_GT(gcs.revision(), revision);
}

TEST(Gcs, YkdFormsPrimaryOnMajoritySideAfterTwoRounds) {
  Gcs gcs(AlgorithmKind::kYkd, 5);
  gcs.apply_partition(0, ProcessSet(5, {3, 4}));
  EXPECT_FALSE(gcs.has_primary());  // views installed, nothing formed yet
  gcs.step_round();                 // states multicast
  gcs.step_round();                 // states delivered, attempts multicast
  EXPECT_FALSE(gcs.has_primary());
  gcs.step_round();                 // attempts delivered: primary formed
  EXPECT_TRUE(test::all_in_primary(gcs, ProcessSet(5, {0, 1, 2})));
  EXPECT_FALSE(gcs.algorithm(3).in_primary());
}

TEST(Gcs, WireStatsCountProtocolTraffic) {
  Gcs gcs(AlgorithmKind::kYkd, 4, GcsOptions{.measure_wire_sizes = true});
  gcs.apply_partition(0, ProcessSet(4, {3}));
  settle(gcs);
  const WireStats& stats = gcs.wire_stats();
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_EQ(stats.messages_sent, stats.protocol_messages_sent);
  EXPECT_GT(stats.max_message_bytes, 0u);
  EXPECT_GE(stats.total_message_bytes,
            stats.max_message_bytes * stats.messages_sent / 4);
}

TEST(Gcs, SimpleMajoritySendsNothing) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 8);
  gcs.apply_partition(0, ProcessSet(8, {6, 7}));
  settle(gcs);
  EXPECT_EQ(gcs.wire_stats().messages_sent, 0u);
}

TEST(Gcs, CustomFactoryIsUsed) {
  int constructed = 0;
  Gcs gcs(
      [&constructed](ProcessId self, const View& initial) {
        ++constructed;
        return make_algorithm(AlgorithmKind::kSimpleMajority, self, initial);
      },
      5);
  EXPECT_EQ(constructed, 5);
  EXPECT_EQ(gcs.process_count(), 5u);
}

TEST(Gcs, InvalidProcessIdThrows) {
  Gcs gcs(AlgorithmKind::kYkd, 3);
  EXPECT_THROW((void)gcs.algorithm(3), PreconditionViolation);
  EXPECT_THROW((void)gcs.view_of(99), PreconditionViolation);
}

TEST(Gcs, PartitionRequiresNonEmptySides) {
  Gcs gcs(AlgorithmKind::kYkd, 3);
  EXPECT_THROW(gcs.apply_partition(0, ProcessSet(3)), PreconditionViolation);
  EXPECT_THROW(gcs.apply_partition(0, ProcessSet::full(3)),
               PreconditionViolation);
}

/// Counts the incoming_messages calls its process receives.
class BatchCounter final : public test::ForwardingAlgorithm {
 public:
  BatchCounter(std::unique_ptr<PrimaryComponentAlgorithm> inner,
               std::uint64_t* calls)
      : ForwardingAlgorithm(std::move(inner)), calls_(calls) {}

  void incoming_messages(std::span<const Delivery> batch) override {
    ++*calls_;
    inner().incoming_messages(batch);
  }

 private:
  std::uint64_t* calls_;
};

// A round reaches each process in one call, and so does a flush: however
// many multicasts are in flight and however their components interleave
// by id, no process gets a second incoming_messages call from one round or
// one change.
TEST(Gcs, EachProcessGetsAtMostOneBatchPerRound) {
  constexpr std::size_t kProcesses = 8;
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    SCOPED_TRACE(std::string(to_string(kind)));
    std::vector<std::uint64_t> calls(kProcesses, 0);
    Gcs gcs(
        [&calls, kind](ProcessId self, const View& initial)
            -> std::unique_ptr<PrimaryComponentAlgorithm> {
          return std::make_unique<BatchCounter>(
              make_algorithm(kind, self, initial), &calls[self]);
        },
        kProcesses);
    // Runs `event` and checks that it reached each process at most once.
    const auto at_most_one_call = [&](const auto& event) {
      const std::vector<std::uint64_t> before = calls;
      event();
      for (ProcessId p = 0; p < kProcesses; ++p) {
        EXPECT_LE(calls[p] - before[p], 1u) << "process " << p;
      }
    };
    const auto settle_checked = [&] {
      for (int i = 0; i < 200; ++i) {
        bool active = false;
        at_most_one_call([&] { active = gcs.step_round(); });
        if (!active) return;
      }
      FAIL() << "system did not quiesce";
    };

    // Three components whose ids interleave exchange in the same rounds;
    // the second split and the merge flush exchanges in flight.
    at_most_one_call(
        [&] { gcs.apply_partition(0, ProcessSet(kProcesses, {1, 3, 5})); });
    at_most_one_call([&] { gcs.step_round(); });
    at_most_one_call([&] {
      gcs.apply_partition(gcs.topology().component_of(0),
                          ProcessSet(kProcesses, {6}));
    });
    at_most_one_call([&] { gcs.step_round(); });
    at_most_one_call([&] {
      gcs.apply_merge(gcs.topology().component_of(1),
                      gcs.topology().component_of(6));
    });
    settle_checked();
    at_most_one_call([&] {
      gcs.apply_merge(gcs.topology().component_of(0),
                      gcs.topology().component_of(1));
    });
    settle_checked();

    std::uint64_t total = 0;
    for (std::uint64_t c : calls) total += c;
    if (kind == AlgorithmKind::kSimpleMajority) {
      EXPECT_EQ(total, 0u);  // it sends nothing, so nothing is delivered
    } else {
      EXPECT_GT(total, 0u);
    }
  }
}

/// The YKD family, whose rounds YkdFamilyBase receives once for a group
/// that stands at one round start: the state exchange, the attempts and
/// DFLS's GC round.  MR1p tallies its rounds 4 and 5 once for a group of
/// equal tallies; its cases follow the family's.
constexpr AlgorithmKind kFamily[] = {
    AlgorithmKind::kYkd, AlgorithmKind::kYkdUnoptimized, AlgorithmKind::kDfls,
    AlgorithmKind::kOnePending};

Gcs::AlgorithmFactory of_kind(AlgorithmKind kind) {
  return [kind](ProcessId self, const View& initial) {
    return make_algorithm(kind, self, initial);
  };
}

/// Even ids run `even`, odd ids `odd`.
Gcs::AlgorithmFactory alternating(AlgorithmKind even, AlgorithmKind odd) {
  return [even, odd](ProcessId self, const View& initial) {
    return make_algorithm(self % 2 == 0 ? even : odd, self, initial);
  };
}

/// One world built twice: `plain` as the factory builds it, and `wrapped`
/// with every instance inside a test::ForwardingAlgorithm, which keeps the
/// default group and batch calls and so receives every message member by
/// member and message by message.  Each event is applied to both, and the
/// two must then agree on every process's state and view, the messages
/// sent and the deliveries made.
class TwinWorlds {
 public:
  TwinWorlds(const Gcs::AlgorithmFactory& factory, std::size_t processes)
      : plain_(factory, processes),
        wrapped_(
            [&factory](ProcessId self, const View& initial)
                -> std::unique_ptr<PrimaryComponentAlgorithm> {
              return std::make_unique<test::ForwardingAlgorithm>(
                  factory(self, initial));
            },
            processes) {}

  const Gcs& plain() const { return plain_; }

  template <typename Event>
  void apply(const Event& event) {
    event(plain_);
    event(wrapped_);
    expect_agree();
  }

  void round() {
    const bool active = plain_.step_round();
    EXPECT_EQ(wrapped_.step_round(), active);
    expect_agree();
  }

  void settle() {
    for (int i = 0; i < 200; ++i) {
      const bool active = plain_.step_round();
      EXPECT_EQ(wrapped_.step_round(), active);
      expect_agree();
      if (!active) return;
    }
    FAIL() << "system did not quiesce";
  }

  void expect_agree() const {
    EXPECT_EQ(test::reading(plain_), test::reading(wrapped_));
    EXPECT_EQ(plain_.wire_stats().messages_sent,
              wrapped_.wire_stats().messages_sent);
    EXPECT_EQ(plain_.deliveries(), wrapped_.deliveries());
  }

 private:
  Gcs plain_;
  Gcs wrapped_;
};

// A partition flush that carries every state of the old view to both
// sides: each side completes the old view's exchange inside the flush, as
// a group ({0,1} and {2,3,4}), and decides to attempt.  With attempts in
// flight instead, both sides form the old view's primary inside the flush.
TEST(GroupDelivery, FlushCarryingEveryStateCompletesTheRoundOnBothSides) {
  constexpr std::size_t kN = 8;
  for (AlgorithmKind kind : kFamily) {
    SCOPED_TRACE(std::string(to_string(kind)));
    TwinWorlds w(of_kind(kind), kN);
    const auto split_old_view = [](Gcs& g) {
      g.apply_partition(g.topology().component_of(0),
                        ProcessSet(kN, {2, 3, 4}), all_cross());
    };
    w.apply([](Gcs& g) { g.apply_partition(0, ProcessSet(kN, {5, 6, 7})); });
    w.round();  // the states of {0..4} are in flight
    w.apply(split_old_view);
    for (ProcessId p = 0; p < 5; ++p) {
      EXPECT_EQ(w.plain().algorithm(p).debug_info().session_number, 1u)
          << "process " << p << " did not complete the exchange";
    }
    w.settle();

    w.apply([](Gcs& g) { g.apply_merge(0, 1); });
    w.apply([](Gcs& g) { g.apply_merge(0, 1); });
    w.settle();
    w.apply([](Gcs& g) { g.apply_partition(0, ProcessSet(kN, {5, 6, 7})); });
    w.round();  // states
    w.round();  // attempts in flight
    w.apply(split_old_view);
    for (ProcessId p = 0; p < 5; ++p) {
      EXPECT_EQ(w.plain().algorithm(p).last_primary_session().members,
                ProcessSet(kN, {0, 1, 2, 3, 4}))
          << "process " << p << " did not form the old view";
    }
    w.settle();
  }
}

// A partition flush that carries no state across: neither side completes
// the old view's exchange, so each member receives the batch itself.
TEST(GroupDelivery, FlushCarryingNoStateLeavesTheRoundOpen) {
  constexpr std::size_t kN = 8;
  for (AlgorithmKind kind : kFamily) {
    SCOPED_TRACE(std::string(to_string(kind)));
    TwinWorlds w(of_kind(kind), kN);
    w.apply([](Gcs& g) { g.apply_partition(0, ProcessSet(kN, {5, 6, 7})); });
    w.round();
    w.apply([](Gcs& g) {
      g.apply_partition(g.topology().component_of(0),
                        ProcessSet(kN, {2, 3, 4}), no_cross());
    });
    for (ProcessId p = 0; p < 5; ++p) {
      EXPECT_EQ(w.plain().algorithm(p).debug_info().session_number, 0u)
          << "process " << p;
    }
    w.settle();
  }
}

// Crash flushes hand the survivors their component's traffic, the dead
// process's own multicasts by the coin.  A crash of a process already
// alone flushes its traffic to nobody: an empty recipient set makes no
// group call.
TEST(GroupDelivery, CrashFlushesMatchPerMemberDelivery) {
  constexpr std::size_t kN = 6;
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    SCOPED_TRACE(std::string(to_string(kind)));
    TwinWorlds w(of_kind(kind), kN);
    w.apply([](Gcs& g) { g.apply_partition(0, ProcessSet(kN, {4, 5})); });
    w.round();  // states in flight on both sides
    w.apply([](Gcs& g) { g.apply_crash(1, all_cross()); });
    w.round();
    w.apply([](Gcs& g) { g.apply_crash(2); });
    w.settle();
    w.apply([](Gcs& g) {
      g.apply_partition(g.topology().component_of(4), ProcessSet(kN, {5}));
    });
    w.round();  // 5's state is in flight to itself alone
    w.apply([](Gcs& g) { g.apply_crash(5); });
    w.settle();
    w.apply([](Gcs& g) { g.apply_sleep(3); });
    w.apply([](Gcs& g) { g.apply_recovery(1); });
    w.apply([](Gcs& g) { g.apply_wake(3, 0); });
    w.settle();
    w.apply([](Gcs& g) {
      g.apply_merge(g.topology().component_of(0), g.topology().component_of(1));
    });
    w.settle();
  }
}

/// Seeded partitions and merges, 0 to 2 rounds apart, each flush crossing
/// by the delivery coin; then both worlds settle.
void churn(TwinWorlds& w, std::uint64_t seed, int changes) {
  Rng rng = Rng::from_raw_seed(seed);
  const std::size_t n = w.plain().process_count();
  for (int c = 0; c < changes; ++c) {
    const std::vector<ProcessSet>& comps = w.plain().topology().components();
    const std::size_t index = rng.below(comps.size());
    if (comps.size() == 1 || (comps[index].count() > 1 && rng.chance(0.5))) {
      const ProcessSet& component = comps[index];
      ProcessSet moved(n);
      while (moved.empty() || moved == component) {
        moved = ProcessSet(n);
        component.for_each([&](ProcessId p) {
          if (rng.chance(0.5)) moved.insert(p);
        });
      }
      w.apply([&](Gcs& g) { g.apply_partition(index, moved); });
    } else {
      std::size_t other = rng.below(comps.size() - 1);
      if (other >= index) ++other;
      w.apply([&](Gcs& g) { g.apply_merge(index, other); });
    }
    for (std::uint64_t r = rng.below(3); r > 0; --r) w.round();
  }
  w.settle();
}

// A group whose members are not all one variant falls back to per-member
// delivery: YKD beside DFLS (another type that decides on the unfiltered
// pool) and beside 1-pending (another type with its own allow_attempt).
// YKD beside unoptimized YKD is one type with different prune modes: the
// group shares their verdict, and each prunes for itself.
TEST(GroupDelivery, MixedVariantsMatchPerMemberDelivery) {
  constexpr std::size_t kN = 8;
  const std::pair<AlgorithmKind, AlgorithmKind> mixes[] = {
      {AlgorithmKind::kYkd, AlgorithmKind::kDfls},
      {AlgorithmKind::kDfls, AlgorithmKind::kYkd},
      {AlgorithmKind::kYkd, AlgorithmKind::kOnePending},
      {AlgorithmKind::kOnePending, AlgorithmKind::kYkd},
      {AlgorithmKind::kYkd, AlgorithmKind::kYkdUnoptimized},
      {AlgorithmKind::kYkdUnoptimized, AlgorithmKind::kYkd},
  };
  for (const auto& [even, odd] : mixes) {
    SCOPED_TRACE(std::string(to_string(even)) + " beside " +
                 std::string(to_string(odd)));
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      TwinWorlds w(alternating(even, odd), kN);
      churn(w, seed, 24);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// MR1p under churn: alone; with its two resolution policies alternating,
// which form one group because neither tally reads the policy (their
// pending classes split by it); and beside YKD, a mixed group that falls
// back to per-member delivery.  Then alone at N=64, where views of dozens
// of members merge with several pending sessions among them.
TEST(GroupDelivery, Mr1pChurnMatchesPerMemberDelivery) {
  constexpr std::size_t kN = 8;
  const Gcs::AlgorithmFactory policies =
      [](ProcessId self, const View& initial)
      -> std::unique_ptr<PrimaryComponentAlgorithm> {
    return std::make_unique<Mr1p>(
        self, initial,
        Mr1pOptions{.policy = self % 2 == 0
                                  ? Mr1pResolutionPolicy::kConservative
                                  : Mr1pResolutionPolicy::kAdoptOnAttempt});
  };
  const std::pair<const char*, Gcs::AlgorithmFactory> worlds[] = {
      {"mr1p", of_kind(AlgorithmKind::kMr1p)},
      {"conservative beside adopt-on-attempt", policies},
      {"mr1p beside ykd",
       alternating(AlgorithmKind::kMr1p, AlgorithmKind::kYkd)},
      {"ykd beside mr1p",
       alternating(AlgorithmKind::kYkd, AlgorithmKind::kMr1p)},
  };
  for (const auto& [name, factory] : worlds) {
    SCOPED_TRACE(name);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      TwinWorlds w(factory, kN);
      churn(w, seed, 24);
      if (::testing::Test::HasFailure()) return;
    }
  }
  SCOPED_TRACE("mr1p, N=64");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TwinWorlds w(of_kind(AlgorithmKind::kMr1p), 64);
    churn(w, seed, 24);
    if (::testing::Test::HasFailure()) return;
  }
}

/// Instances driven by hand, and each one's first message in the view it
/// last installed: its round-1 state, or MR1p's proposal or pending query
/// (empty if it had nothing to send).
struct HandBuilt {
  std::vector<std::unique_ptr<PrimaryComponentAlgorithm>> algs;
  std::vector<Message> states;

  /// Three fresh instances of `kind` in view 2 = {0,1,2} of a
  /// three-process world.
  explicit HandBuilt(AlgorithmKind kind) {
    const View initial{1, ProcessSet::full(3)};
    for (ProcessId p = 0; p < 3; ++p) {
      algs.push_back(make_algorithm(kind, p, initial));
    }
    install(View{2, ProcessSet::full(3)});
  }
  explicit HandBuilt(std::vector<std::unique_ptr<PrimaryComponentAlgorithm>> a)
      : algs(std::move(a)) {}

  /// Installs `view` at its members and records their first messages.
  void install(const View& view) {
    states.resize(algs.size());
    view.members.for_each([&](ProcessId p) {
      algs[p]->view_changed(view);
      states[p] = algs[p]->outgoing_message_poll(Message::empty())
                      .value_or(Message::empty());
    });
  }
};

/// Each process's state, and what it sends when polled until quiet.
std::vector<std::pair<test::ProcessReading, std::vector<std::vector<std::byte>>>>
outcome(HandBuilt& world) {
  std::vector<std::pair<test::ProcessReading,
                        std::vector<std::vector<std::byte>>>>
      out;
  for (const auto& alg : world.algs) {
    std::vector<std::vector<std::byte>> sent;
    while (auto m = alg->outgoing_message_poll(Message::empty())) {
      sent.push_back(m->serialize());
    }
    out.emplace_back(test::ProcessReading{alg->in_primary(),
                                          alg->last_primary_session(),
                                          alg->debug_info(), View{}},
                     std::move(sent));
  }
  return out;
}

/// A message of view `id` carrying `payload`, the same object at every
/// receiver.
template <typename T>
Message in_view(ViewId id, PayloadRef<T> payload) {
  payload->view_id = id;
  Message m;
  m.protocol = std::move(payload);
  return m;
}

template <typename T>
Message view2(PayloadRef<T> payload) {
  return in_view(2, std::move(payload));
}

/// What the hand-built batches below carry: a process's own round-1
/// message, or one of these shared ones.
enum class Kind {
  kState,         // the sender's first message (HandBuilt::states)
  kAttempt,       // a YKD-family attempt for session 1 of {0,1,2}
  kGc,            // a GC payload for a formation nobody made
  kGcFormed,      // a GC payload for the formation of session 1
  kMr1pPropose,   // MR1p's <V,1> for view 2
  kMr1pAttempt,   // MR1p's <attempt,V> for view 2
  kMr1pPending,   // MR1p's round 1: a pending session of view 1
  kMr1pReply,     // MR1p's round 2: the sender never formed that session
  kGiven,         // Item::given, the same message in both worlds
};

struct Item {
  ProcessId sender;
  Kind kind;
  Message given = {};
};

/// One batch: `items` in order, handed to the members `to` (every process
/// when empty).
struct Batch {
  std::vector<Item> items;
  std::vector<ProcessId> to = {};
};

const Message& shared_message(Kind kind) {
  const Session view_session{2, ProcessSet::full(3)};
  const Session old_pending{1, ProcessSet(3, {0, 1})};
  static const Message attempt = [] {
    auto a = make_payload<AttemptPayload>();
    a->proposal = Session{1, ProcessSet::full(3)};
    return view2(std::move(a));
  }();
  static const Message gc = view2(make_payload<GcRoundPayload>());
  static const Message gc_formed = [] {
    auto g = make_payload<GcRoundPayload>();
    g->formed_number = 1;
    return view2(std::move(g));
  }();
  static const Message propose = [&] {
    auto p = make_payload<Mr1pProposePayload>();
    p->proposal = view_session;
    return view2(std::move(p));
  }();
  static const Message mr1p_attempt = [&] {
    auto a = make_payload<Mr1pAttemptPayload>();
    a->proposal = view_session;
    return view2(std::move(a));
  }();
  static const Message pending = [&] {
    auto r1 = make_payload<Mr1pPendingPayload>();
    r1->has_pending = true;
    r1->pending = old_pending;
    r1->num = 1;
    r1->status = Mr1pStatus::kSent;
    return view2(std::move(r1));
  }();
  static const Message reply = [&] {
    auto r2 = make_payload<Mr1pReplyPayload>();
    r2->replies.push_back(
        Mr1pReplyItem{old_pending, Mr1pVerdict::kAborted, 0});
    return view2(std::move(r2));
  }();
  switch (kind) {
    case Kind::kAttempt: return attempt;
    case Kind::kGc: return gc;
    case Kind::kGcFormed: return gc_formed;
    case Kind::kMr1pPropose: return propose;
    case Kind::kMr1pAttempt: return mr1p_attempt;
    case Kind::kMr1pPending: return pending;
    case Kind::kMr1pReply: return reply;
    case Kind::kState:
    case Kind::kGiven: break;
  }
  DV_ASSERT_MSG(false, "a state or a given message is the item's own");
  return gc;
}

const Message& message(const HandBuilt& world, const Item& item) {
  if (item.kind == Kind::kState) return world.states[item.sender];
  if (item.kind == Kind::kGiven) return item.given;
  return shared_message(item.kind);
}

/// Hands each batch to its members in two copies of one hand-built world:
/// in `grouped` as one incoming_messages_to_group call, in `single` message
/// by message to each member.  Both must then end alike.
void expect_grouped_matches_single(HandBuilt& grouped, HandBuilt& single,
                                   const std::vector<Batch>& batches) {
  std::vector<ProcessId> everyone(grouped.algs.size());
  std::iota(everyone.begin(), everyone.end(), ProcessId{0});
  for (const Batch& b : batches) {
    const std::vector<ProcessId>& to = b.to.empty() ? everyone : b.to;
    std::vector<PrimaryComponentAlgorithm*> group;
    for (ProcessId p : to) group.push_back(grouped.algs[p].get());
    std::vector<Delivery> batch;
    for (const Item& item : b.items) {
      batch.push_back(Delivery{item.sender, &message(grouped, item)});
    }
    group.front()->incoming_messages_to_group(group, batch);
    for (ProcessId p : to) {
      for (const Item& item : b.items) {
        (void)single.algs[p]->incoming_message(message(single, item),
                                               item.sender);
      }
    }
  }
  EXPECT_EQ(outcome(grouped), outcome(single));
}

/// The message of `kind` from each of the three processes, in id order.
std::vector<Item> from_all(Kind kind) {
  return {{0, kind}, {1, kind}, {2, kind}};
}

std::vector<Item> concat(std::initializer_list<std::vector<Item>> parts) {
  std::vector<Item> out;
  for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

// Hand-built batches for a group of three, each compared with handing
// every member every message itself:
//  * the exchange completes at the third message, and every member's
//    attempt follows (each member receives those separately and forms the
//    primary), then a stale duplicate state;
//  * the same led by a payload of another type, which sends the whole
//    batch to each member;
//  * the exchange split over two batches: the first leaves it open, so
//    each member receives that batch itself, and the second completes it.
TEST(GroupDelivery, HandBuiltBatchesMatchPerMessageDelivery) {
  const std::vector<Item> exchange = from_all(Kind::kState);
  const std::vector<Item> attempts = from_all(Kind::kAttempt);
  const std::pair<const char*, std::vector<Batch>> cases[] = {
      {"completes early",
       {{concat({exchange, attempts, {{1, Kind::kState}}})}}},
      {"led by another type",
       {{concat({{{1, Kind::kGc}}, exchange, attempts, {{1, Kind::kState}}})}}},
      {"split over two batches",
       {{{exchange[0], exchange[1]}}, {concat({{exchange[2]}, attempts})}}},
  };
  for (AlgorithmKind kind : kFamily) {
    SCOPED_TRACE(std::string(to_string(kind)));
    for (const auto& [name, batches] : cases) {
      SCOPED_TRACE(name);
      HandBuilt grouped(kind);
      HandBuilt single(kind);
      expect_grouped_matches_single(grouped, single, batches);
      for (const auto& alg : grouped.algs) {
        EXPECT_TRUE(alg->in_primary()) << "process " << alg->self();
      }
    }
  }
}

// Hand-built MR1p batches for a group of three (a fresh view, so every
// member proposes it and stages its attempt once all three proposals are
// in; two attempts form it):
//  * the propose round completes mid-batch, the attempts reach a majority
//    mid-batch, and the last attempt and a reply follow;
//  * the propose round split over two batches, the second completing it;
//  * a batch led by a round-1 pending payload, which every member queries
//    and answers, continuing a propose round the batch before began.
TEST(GroupDelivery, Mr1pHandBuiltBatchesMatchPerMessageDelivery) {
  const std::vector<Item> proposals = from_all(Kind::kMr1pPropose);
  const std::vector<Item> attempts = from_all(Kind::kMr1pAttempt);
  const std::pair<const char*, std::vector<Batch>> cases[] = {
      {"completes mid-batch",
       {{concat({proposals, attempts, {{0, Kind::kMr1pReply}}})}}},
      {"proposals split over two batches",
       {{{proposals[0]}}, {concat({{proposals[1], proposals[2]}, attempts})}}},
      {"led by a round-1 payload",
       {{{proposals[0], proposals[1]}},
        {concat({{{2, Kind::kMr1pPending}, proposals[2]}, attempts})}}},
  };
  for (const auto& [name, batches] : cases) {
    SCOPED_TRACE(name);
    HandBuilt grouped(AlgorithmKind::kMr1p);
    HandBuilt single(AlgorithmKind::kMr1p);
    expect_grouped_matches_single(grouped, single, batches);
    for (const auto& alg : grouped.algs) {
      EXPECT_TRUE(alg->in_primary()) << "process " << alg->self();
    }
  }
}

// Two parts of one MR1p view receive different parts of a round, as the
// two sides of a partition flush do ({0} and {1,2} here), first of the
// propose round and then of the attempt round.  A later batch to the
// whole view then meets unequal tallies: it completes the round at 0 and
// not at 1 and 2, so the group must fall back to each member receiving
// it.  (The simulated GCS installs new views after a flush, so only a
// hand-driven group can hold unequal tallies in one view.)
TEST(GroupDelivery, Mr1pUnequalTalliesFallBack) {
  const std::vector<Item> proposals = from_all(Kind::kMr1pPropose);
  const std::vector<Item> attempts = from_all(Kind::kMr1pAttempt);
  const std::pair<const char*, std::vector<Batch>> cases[] = {
      {"propose round",
       {{{proposals[0], proposals[1]}, {0}},
        {{proposals[2]}, {1, 2}},
        {{proposals[2]}}}},
      {"attempt round",
       {{proposals},
        {{attempts[0]}, {0}},
        {{attempts[1]}, {1, 2}},
        {{attempts[1]}}}},
  };
  for (const auto& [name, batches] : cases) {
    SCOPED_TRACE(name);
    HandBuilt grouped(AlgorithmKind::kMr1p);
    HandBuilt single(AlgorithmKind::kMr1p);
    expect_grouped_matches_single(grouped, single, batches);
    EXPECT_NE(outcome(grouped)[0], outcome(grouped)[1])
        << "the round completed at all three";
  }
}

// --- MR1p's pending classes ----------------------------------------------
//
// Six MR1p processes whose scripted histories leave them pending sessions
// A and B (or none) before they meet in view 4, where the batches below
// are delivered.  A and B are the sessions views 2 and 3 proposed; V is
// view 4's own.

const Session kA{2, ProcessSet(6, {0, 1, 2, 3})};
const Session kB{3, ProcessSet(6, {2, 3, 4, 5})};
const Session kV{4, ProcessSet::full(6)};

/// How far a process got in one view of its history: it proposed the view,
/// also received every member's proposal (and so attempted it), or also
/// received a majority's attempts (and so formed it).
enum class Reached { kProposed, kAttempted, kFormed };

struct Step {
  View view;
  Reached reached;
};

/// A message of view `id` proposing or attempting its own session.
template <typename T>
Message of_view(const View& view) {
  auto payload = make_payload<T>();
  payload->proposal = Session{view.id, view.members};
  return in_view(view.id, std::move(payload));
}

/// Six MR1p processes, even ids under `even` and odd ids under `odd`, each
/// living through `history[p]` by hand; then the members of `last` install
/// it.
HandBuilt mr1p_world(const std::vector<std::vector<Step>>& history,
                     Mr1pResolutionPolicy even, Mr1pResolutionPolicy odd,
                     const View& last) {
  std::vector<std::unique_ptr<PrimaryComponentAlgorithm>> algs;
  for (ProcessId p = 0; p < 6; ++p) {
    algs.push_back(std::make_unique<Mr1p>(
        p, View{1, ProcessSet::full(6)},
        Mr1pOptions{.policy = p % 2 == 0 ? even : odd}));
    PrimaryComponentAlgorithm& alg = *algs.back();
    for (const Step& step : history[p]) {
      alg.view_changed(step.view);
      const std::vector<ProcessId> members = step.view.members.members();
      if (step.reached != Reached::kProposed) {
        for (ProcessId q : members) {
          (void)alg.incoming_message(of_view<Mr1pProposePayload>(step.view), q);
        }
      }
      if (step.reached == Reached::kFormed) {
        for (std::size_t i = 0; i < majority(members.size()); ++i) {
          (void)alg.incoming_message(of_view<Mr1pAttemptPayload>(step.view),
                                     members[i]);
        }
      }
      while (alg.outgoing_message_poll(Message::empty())) {
      }
    }
  }
  HandBuilt world(std::move(algs));
  world.install(last);
  return world;
}

/// A merge of two sides that each left a session pending: 0 and 1 attempted
/// A and 2 and 3 only proposed it before 2 and 3 moved to view 3, where 4
/// and 5 proposed B.  In view 4, {0,1,2,3} hold A and {4,5} hold B.
const std::vector<std::vector<Step>>& merge_history() {
  static const std::vector<std::vector<Step>> history = [] {
    const View a{2, kA.members};
    const View b{3, kB.members};
    return std::vector<std::vector<Step>>{
        {{a, Reached::kAttempted}},
        {{a, Reached::kAttempted}},
        {{a, Reached::kProposed}, {b, Reached::kProposed}},
        {{a, Reached::kProposed}, {b, Reached::kProposed}},
        {{b, Reached::kProposed}},
        {{b, Reached::kProposed}}};
  }();
  return history;
}

/// Messages of view 4 for the hand-built batches.
Item reply(ProcessId sender, std::vector<Mr1pReplyItem> items) {
  auto payload = make_payload<Mr1pReplyPayload>();
  payload->replies = std::move(items);
  return {sender, Kind::kGiven, in_view(4, std::move(payload))};
}
Item resolve(ProcessId sender, const Session& about, Mr1pVerdict call) {
  auto payload = make_payload<Mr1pResolvePayload>();
  payload->about = about;
  payload->call = call;
  return {sender, Kind::kGiven, in_view(4, std::move(payload))};
}
Item proposes(ProcessId sender, const View& view) {
  return {sender, Kind::kGiven, of_view<Mr1pProposePayload>(view)};
}
Item attempts(ProcessId sender, const View& view) {
  return {sender, Kind::kGiven, of_view<Mr1pAttemptPayload>(view)};
}

/// Round 1 of the merge: every process's pending query, in id order.
std::vector<Item> queries() {
  std::vector<Item> out;
  for (ProcessId p = 0; p < 6; ++p) out.push_back({p, Kind::kState});
  return out;
}

/// Round 2 of the merge as the processes would send it: 0 and 1 echo A at
/// the attempt stage, 2 and 3 echo it as sent and abort B (they belong to
/// it and never formed it), 4 and 5 echo B.
std::vector<Item> merge_replies() {
  const Mr1pReplyItem a_attempt{kA, Mr1pVerdict::kStatusAttempt, 2};
  const Mr1pReplyItem a_sent{kA, Mr1pVerdict::kStatusSent, 1};
  const Mr1pReplyItem b_aborted{kB, Mr1pVerdict::kAborted, 0};
  const Mr1pReplyItem b_sent{kB, Mr1pVerdict::kStatusSent, 1};
  return {reply(0, {a_attempt}),           reply(1, {a_attempt}),
          reply(2, {a_sent, b_aborted}),   reply(3, {a_sent, b_aborted}),
          reply(4, {b_sent}),              reply(5, {b_sent})};
}

/// V's try-fail calls from 0, 1, 2 and 4: a majority of view 4.
std::vector<Item> v_tryfails() {
  return {resolve(0, kV, Mr1pVerdict::kStatusTryFail),
          resolve(1, kV, Mr1pVerdict::kStatusTryFail),
          resolve(2, kV, Mr1pVerdict::kStatusTryFail),
          resolve(4, kV, Mr1pVerdict::kStatusTryFail)};
}

// Hand-built batches for pending classes, each compared with handing every
// member every message itself:
//  * the merge's rounds 1-5: A and B in one view, B aborted by 2's reply,
//    A called try-fail and abandoned, then V proposed, attempted and
//    formed; once with one policy, once with the two alternating (classes
//    split by policy, and the adopt-on-attempt class adopts A mid-reply);
//  * A's echoes split over two batches, so the members meet the second
//    with the echo state the first left the class's leader;
//  * one pending session whose members hold unequal echo senders (0 heard
//    itself, the others heard 1: one class would be wrong), and then
//    unequal try-fail callers;
//  * unequal query lists at batch start (2 was queried about B first);
//  * six members that each heard a different echo: more classes than a
//    batch follows, so the last two receive rounds 2 and 3 on their own;
//  * a class ended mid-batch by a formed reply, an aborted reply, a
//    try-fail majority in round 3, and adopt-on-attempt in rounds 2 and 3;
//    each is followed by more replies and resolves in the batch, which
//    reach the class's members through their new pending session V (in
//    round 2, the adopting reply itself reports V formed);
//  * members with nothing pending beside two classes.
// Each case also pins the primary process 0 ends with, since a step both
// paths share would move both alike.
TEST(GroupDelivery, Mr1pPendingClassesMatchPerMessageDelivery) {
  using enum Mr1pVerdict;
  constexpr auto kConservative = Mr1pResolutionPolicy::kConservative;
  constexpr auto kAdopt = Mr1pResolutionPolicy::kAdoptOnAttempt;
  const View v{4, ProcessSet::full(6)};
  std::vector<Item> a_tryfails;
  for (ProcessId p = 0; p < 4; ++p) {
    a_tryfails.push_back(resolve(p, kA, kStatusTryFail));
  }
  std::vector<Item> forms;
  for (ProcessId p = 0; p < 6; ++p) forms.push_back(proposes(p, v));
  for (ProcessId p = 0; p < 6; ++p) forms.push_back(attempts(p, v));
  const std::vector<Item> r = merge_replies();
  const Mr1pReplyItem a_sent{kA, kStatusSent, 1};
  const Mr1pReplyItem v_formed{kV, kFormed, 0};

  // Members of A without a pending session beside them: 1 formed A, so
  // view {1,2,4,5} (half of A, without its lowest member) leaves it none;
  // 2 still holds A, and 4 and 5 propose the view, session W.
  const View w_view{4, ProcessSet(6, {1, 2, 4, 5})};
  const Session kW{4, w_view.members};
  const View a_view{2, kA.members};
  const std::vector<std::vector<Step>> beside = {
      {{a_view, Reached::kAttempted}}, {{a_view, Reached::kFormed}},
      {{a_view, Reached::kAttempted}}, {{a_view, Reached::kProposed}},
      {},                              {}};

  const Session genesis{0, ProcessSet::full(6)};
  const struct {
    const char* name;
    std::vector<std::vector<Step>> history;
    Mr1pResolutionPolicy even;
    Mr1pResolutionPolicy odd;
    View last;
    std::vector<Batch> batches;
    Session primary_of_0;
  } cases[] = {
      {"two pending sessions",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {r}, {a_tryfails}, {forms}}, kV},
      {"two pending sessions, policies alternating",
       merge_history(), kConservative, kAdopt, v,
       {{queries()}, {r}, {a_tryfails}, {forms}}, kV},
      {"echoes split over two batches",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {{r[0], r[1]}}, {{r[2], r[3]}}, {a_tryfails}}, genesis},
      {"unequal echo senders",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {{r[0]}, {0}}, {{r[1]}, {1, 2, 3}},
        {{r[1], r[2], r[3]}}}, genesis},
      {"unequal try-fail callers",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {r}, {{a_tryfails[0]}, {2, 3}},
        {{a_tryfails[1]}, {0, 1}}, {{a_tryfails[0], a_tryfails[2]}}},
       genesis},
      {"unequal query lists",
       merge_history(), kConservative, kConservative, v,
       {{{{4, Kind::kState}}, {2}}, {queries()}, {r}}, genesis},
      {"more classes than a batch follows",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {{r[0]}, {0}}, {{r[1]}, {1}}, {{r[2]}, {2}},
        {{r[3]}, {3}}, {{r[4]}, {4}}, {{r[5]}, {5}}, {r}, {a_tryfails}},
       genesis},
      {"ended by a formed reply",
       merge_history(), kConservative, kConservative, v,
       {{queries()},
        {concat({{reply(1, {{kA, kFormed, 0}}), r[2],
                  reply(3, {{kV, kStatusSent, 1}})},
                 v_tryfails(), {reply(5, {v_formed})}})}}, kA},
      {"ended by an aborted reply",
       merge_history(), kConservative, kConservative, v,
       {{queries()},
        {concat({{reply(2, {{kA, kAborted, 0}}), reply(3, {v_formed})},
                 v_tryfails()})}}, kV},
      {"ended by a try-fail majority",
       merge_history(), kConservative, kConservative, v,
       {{queries()}, {r},
        {concat({{a_tryfails[0], a_tryfails[1], a_tryfails[2]},
                 {reply(3, {v_formed}), a_tryfails[3]}, v_tryfails()})}},
       kV},
      {"ended by adopt-on-attempt in round 2",
       merge_history(), kAdopt, kAdopt, v,
       {{queries()},
        {concat({{r[0], r[1], reply(2, {a_sent, v_formed}), r[3]},
                 v_tryfails()})}}, kV},
      {"ended by adopt-on-attempt in round 3",
       merge_history(), kAdopt, kAdopt, v,
       {{queries()}, {{r[2]}},
        {concat({{resolve(1, kA, kStatusAttempt), reply(4, {v_formed})},
                 v_tryfails()})}}, kV},
      {"nothing pending beside two classes",
       beside, kConservative, kConservative, w_view,
       {{{{2, Kind::kState}, {4, Kind::kState}, {5, Kind::kState}},
         {1, 2, 4, 5}},
        {{reply(1, {{kA, kFormed, 0}}),
          reply(2, {{kA, kStatusAttempt, 2}}),
          resolve(1, kW, kStatusTryFail), resolve(2, kW, kStatusTryFail),
          resolve(4, kW, kStatusTryFail), reply(5, {{kW, kFormed, 0}})},
         {1, 2, 4, 5}}},
       genesis},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    HandBuilt grouped = mr1p_world(c.history, c.even, c.odd, c.last);
    HandBuilt single = mr1p_world(c.history, c.even, c.odd, c.last);
    expect_grouped_matches_single(grouped, single, c.batches);
    EXPECT_EQ(grouped.algs[0]->last_primary_session(), c.primary_of_0);
  }
}

/// `world` after forming session 1 of {0,1,2} in view 2, member by member,
/// with its GC round not yet received.  With `diverge`, member 2 heard
/// process 1 report a session counter of 5, so it formed session 6
/// instead and awaits that formation's GC round.
void form_by_hand(HandBuilt& world, bool diverge) {
  Message bumped = world.states[1];
  if (diverge) {
    auto state = make_payload<StateExchangePayload>(
        static_cast<const StateExchangePayload&>(*world.states[1].protocol));
    state->session_number = 5;
    bumped.protocol = std::move(state);
  }
  Message attempt6;
  {
    auto a = make_payload<AttemptPayload>();
    a->proposal = Session{6, ProcessSet::full(3)};
    attempt6 = view2(std::move(a));
  }
  for (ProcessId p = 0; p < 3; ++p) {
    const bool odd_one = diverge && p == 2;
    PrimaryComponentAlgorithm& alg = *world.algs[p];
    for (ProcessId q = 0; q < 3; ++q) {
      (void)alg.incoming_message(
          q == 1 && odd_one ? bumped : world.states[q], q);
    }
    for (ProcessId q = 0; q < 3; ++q) {
      (void)alg.incoming_message(
          odd_one ? attempt6 : shared_message(Kind::kAttempt), q);
    }
    EXPECT_TRUE(alg.in_primary()) << "process " << p;
    while (alg.outgoing_message_poll(Message::empty())) {
    }
  }
}

// Hand-built DFLS batches after a formation, each compared with handing
// every member every message itself:
//  * the GC round completes in one batch, and every member drops its
//    ambiguous session;
//  * the GC round split over two batches: the first leaves it open, so
//    each member receives that batch itself, and the second completes it;
//  * a batch led by a state payload, which sends the whole batch to each
//    member;
//  * members awaiting different formations' GC rounds (member 2 formed
//    another session), which are not one group: the round completes at 0
//    and 1 only.
TEST(GroupDelivery, DflsHandBuiltGcBatchesMatchPerMessageDelivery) {
  const std::vector<Item> gc = from_all(Kind::kGcFormed);
  const struct {
    const char* name;
    bool diverge;
    std::vector<Batch> batches;
    std::size_t ambiguous_at_2;
  } cases[] = {
      {"completes in one batch", false, {{gc}}, 0},
      {"split over two batches", false, {{{gc[0]}}, {{gc[1], gc[2]}}}, 0},
      {"led by a state payload", false,
       {{concat({{{1, Kind::kState}}, gc})}}, 0},
      {"different formations", true, {{gc}}, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    HandBuilt grouped(AlgorithmKind::kDfls);
    HandBuilt single(AlgorithmKind::kDfls);
    form_by_hand(grouped, c.diverge);
    form_by_hand(single, c.diverge);
    for (const auto& alg : grouped.algs) {
      EXPECT_EQ(alg->debug_info().ambiguous_count, 1u)
          << "process " << alg->self();
    }
    expect_grouped_matches_single(grouped, single, c.batches);
    EXPECT_EQ(grouped.algs[0]->debug_info().ambiguous_count, 0u);
    EXPECT_EQ(grouped.algs[2]->debug_info().ambiguous_count, c.ambiguous_at_2);
  }
}

}  // namespace
}  // namespace dynvote
