// The simulated group communication service: view installation, round
// execution, quiescence, and wire statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gcs/gcs.hpp"
#include "sim_test_util.hpp"
#include "util/assert.hpp"

namespace dynvote {
namespace {

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

}  // namespace
}  // namespace dynvote
