// The simulated group communication service: view installation, round
// execution, quiescence, and wire statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

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

/// The YKD family: the algorithms that receive a batch once for a group.
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

/// Three fresh instances of `kind` in view 2 = {0,1,2} of a three-process
/// world, and each one's round-1 message.
struct HandBuilt {
  std::vector<std::unique_ptr<PrimaryComponentAlgorithm>> algs;
  std::vector<Message> states;

  explicit HandBuilt(AlgorithmKind kind) {
    const View initial{1, ProcessSet::full(3)};
    for (ProcessId p = 0; p < 3; ++p) {
      algs.push_back(make_algorithm(kind, p, initial));
      algs.back()->view_changed(View{2, ProcessSet::full(3)});
      states.push_back(*algs.back()->outgoing_message_poll(Message::empty()));
    }
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
  // A message of a batch: `sender`'s state, its attempt, or a GC payload.
  enum class Kind { kState, kAttempt, kGc };
  struct Item {
    ProcessId sender;
    Kind kind;
  };
  using Batches = std::vector<std::vector<Item>>;
  const std::vector<Item> exchange = {
      {0, Kind::kState}, {1, Kind::kState}, {2, Kind::kState}};
  const std::vector<Item> attempts = {
      {0, Kind::kAttempt}, {1, Kind::kAttempt}, {2, Kind::kAttempt}};
  const auto concat = [](std::initializer_list<std::vector<Item>> parts) {
    std::vector<Item> out;
    for (const auto& part : parts) out.insert(out.end(), part.begin(), part.end());
    return out;
  };
  const std::pair<const char*, Batches> cases[] = {
      {"completes early",
       {concat({exchange, attempts, {{1, Kind::kState}}})}},
      {"led by another type",
       {concat({{{1, Kind::kGc}}, exchange, attempts, {{1, Kind::kState}}})}},
      {"split over two batches",
       {{exchange[0], exchange[1]}, concat({{exchange[2]}, attempts})}},
  };

  Message attempt;
  {
    auto a = make_payload<AttemptPayload>();
    a->view_id = 2;
    a->proposal = Session{1, ProcessSet::full(3)};
    attempt.protocol = std::move(a);
  }
  Message gc;
  {
    auto g = make_payload<GcRoundPayload>();
    g->view_id = 2;
    gc.protocol = std::move(g);
  }
  const auto message = [&](const HandBuilt& world, const Item& item)
      -> const Message& {
    switch (item.kind) {
      case Kind::kState: return world.states[item.sender];
      case Kind::kAttempt: return attempt;
      case Kind::kGc: return gc;
    }
    return gc;
  };

  for (AlgorithmKind kind : kFamily) {
    SCOPED_TRACE(std::string(to_string(kind)));
    for (const auto& [name, batches] : cases) {
      SCOPED_TRACE(name);
      HandBuilt grouped(kind);
      HandBuilt single(kind);
      std::vector<PrimaryComponentAlgorithm*> group;
      for (const auto& alg : grouped.algs) group.push_back(alg.get());
      for (const std::vector<Item>& items : batches) {
        std::vector<Delivery> batch;
        for (const Item& item : items) {
          batch.push_back(Delivery{item.sender, &message(grouped, item)});
        }
        group.front()->incoming_messages_to_group(group, batch);
        for (const auto& alg : single.algs) {
          for (const Item& item : items) {
            (void)alg->incoming_message(message(single, item), item.sender);
          }
        }
      }
      for (const auto& alg : grouped.algs) {
        EXPECT_TRUE(alg->in_primary()) << "process " << alg->self();
      }
      EXPECT_EQ(outcome(grouped), outcome(single));
    }
  }
}

}  // namespace
}  // namespace dynvote
