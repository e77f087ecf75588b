// The randomized fault injector: distributional properties, feasibility,
// and determinism -- plus the trace-replay decoder's negative space (a
// malformed schedule must throw DecodeError before any simulation state
// exists, let alone mutates).
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/driver.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/trace_model.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

TEST(FaultScheduler, ZeroMeanGivesBackToBackChanges) {
  FaultScheduler sched(1, 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sched.next_gap(), 0u);
}

TEST(FaultScheduler, GapMeanMatchesTheConfiguredRate) {
  for (double mean : {1.0, 4.0, 12.0}) {
    FaultScheduler sched(42, mean);
    const int kSamples = 20000;
    double total = 0;
    for (int i = 0; i < kSamples; ++i) total += static_cast<double>(sched.next_gap());
    const double observed = total / kSamples;
    EXPECT_NEAR(observed, mean, mean * 0.1 + 0.05) << "mean=" << mean;
  }
}

TEST(FaultScheduler, SameSeedSameSchedule) {
  FaultScheduler a(7, 3.0);
  FaultScheduler b(7, 3.0);
  Topology ta(16), tb(16);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.next_gap(), b.next_gap());
    const ConnectivityChange ca = a.next_change(ta);
    const ConnectivityChange cb = b.next_change(tb);
    EXPECT_EQ(ca.kind, cb.kind);
    EXPECT_EQ(ca.component_a, cb.component_a);
    EXPECT_EQ(ca.component_b, cb.component_b);
    EXPECT_EQ(ca.moved, cb.moved);
    // Apply to keep the topologies evolving identically.
    if (ca.kind == ConnectivityChange::Kind::kPartition) {
      ta.split(ca.component_a, ca.moved);
      tb.split(cb.component_a, cb.moved);
    } else {
      ta.merge(ca.component_a, ca.component_b);
      tb.merge(cb.component_a, cb.component_b);
    }
  }
}

TEST(FaultScheduler, FirstChangeOnConnectedTopologyIsAPartition) {
  FaultScheduler sched(99, 1.0);
  Topology topo(8);
  const ConnectivityChange c = sched.next_change(topo);
  EXPECT_EQ(c.kind, ConnectivityChange::Kind::kPartition);
  EXPECT_EQ(c.component_a, 0u);
  EXPECT_FALSE(c.moved.empty());
  EXPECT_LT(c.moved.count(), 8u);
}

TEST(FaultScheduler, FullyFragmentedTopologyOnlyMerges) {
  FaultScheduler sched(5, 1.0);
  Topology topo(3);
  topo.split(0, ProcessSet(3, {0}));
  topo.split(0, ProcessSet(3, {1}));
  for (int i = 0; i < 20; ++i) {
    const ConnectivityChange c = sched.next_change(topo);
    EXPECT_EQ(c.kind, ConnectivityChange::Kind::kMerge);
    EXPECT_NE(c.component_a, c.component_b);
    EXPECT_LT(c.component_a, 3u);
    EXPECT_LT(c.component_b, 3u);
  }
}

TEST(FaultScheduler, ChangesAreAlwaysFeasible) {
  FaultScheduler sched(123, 0.5);
  Topology topo(16);
  for (int i = 0; i < 2000; ++i) {
    const ConnectivityChange c = sched.next_change(topo);
    if (c.kind == ConnectivityChange::Kind::kPartition) {
      const ProcessSet& comp = topo.component(c.component_a);
      EXPECT_TRUE(c.moved.is_subset_of(comp));
      EXPECT_GE(c.moved.count(), 1u);
      EXPECT_LT(c.moved.count(), comp.count());
      topo.split(c.component_a, c.moved);
    } else {
      EXPECT_NE(c.component_a, c.component_b);
      topo.merge(c.component_a, c.component_b);
    }
  }
}

TEST(FaultScheduler, SplitSizesCoverTheWholeRange) {
  // "Partitions do not necessarily happen evenly": over many draws from a
  // 16-process component, every moved-count 1..15 should occur.
  std::set<std::size_t> seen;
  FaultScheduler sched(321, 0.0);
  for (int i = 0; i < 2000; ++i) {
    Topology topo(16);
    const ConnectivityChange c = sched.next_change(topo);
    ASSERT_EQ(c.kind, ConnectivityChange::Kind::kPartition);
    seen.insert(c.moved.count());
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(FaultScheduler, NegativeMeanRejected) {
  EXPECT_THROW(FaultScheduler(1, -1.0), PreconditionViolation);
}

TEST(FaultScheduler, SingleProcessTopologyRejected) {
  FaultScheduler sched(1, 1.0);
  Topology topo(1);
  EXPECT_THROW(sched.next_change(topo), PreconditionViolation);
}

// --- the scheduler is total ------------------------------------------

/// A world as the geometric scheduler sees it: the live components' sizes
/// (descending) and the crashed count.  The scheduler never looks at
/// process ids, so nothing else shapes a draw.
struct SchedulerState {
  std::vector<std::size_t> live;
  std::size_t crashed = 0;
  auto operator<=>(const SchedulerState&) const = default;
};

/// Every state reachable from `n` connected processes by a change the
/// scheduler can draw: any split of a live component and any merge of two
/// (unless `connectivity` is off, as at crash fraction 1.0), a crash while
/// two processes live, and a recovery.
std::set<SchedulerState> reachable_states(std::size_t n, bool connectivity) {
  std::set<SchedulerState> seen;
  std::vector<SchedulerState> todo{{{n}, 0}};
  while (!todo.empty()) {
    const SchedulerState s = todo.back();
    todo.pop_back();
    if (!seen.insert(s).second) continue;
    const auto push = [&](std::vector<std::size_t> live, std::size_t crashed) {
      std::sort(live.rbegin(), live.rend());
      todo.push_back({std::move(live), crashed});
    };
    for (std::size_t i = 0; i < s.live.size(); ++i) {
      for (std::size_t k = 1; connectivity && k < s.live[i]; ++k) {
        std::vector<std::size_t> live = s.live;
        live[i] -= k;
        live.push_back(k);
        push(live, s.crashed);
      }
      for (std::size_t j = i + 1; connectivity && j < s.live.size(); ++j) {
        std::vector<std::size_t> live = s.live;
        live[i] += live[j];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
        push(live, s.crashed);
      }
      if (n - s.crashed >= 2) {
        std::vector<std::size_t> live = s.live;
        if (--live[i] == 0) {
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
        push(live, s.crashed + 1);
      }
    }
    if (s.crashed > 0) {
      std::vector<std::size_t> live = s.live;
      live.push_back(1);
      push(live, s.crashed - 1);
    }
  }
  return seen;
}

/// A Gcs of `n` processes in `state`: the highest ids crashed, the live
/// ones split into components of the listed sizes in id order.
Gcs realize(const SchedulerState& state, std::size_t n) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, n);
  for (std::size_t k = 0; k < state.crashed; ++k) {
    gcs.apply_crash(static_cast<ProcessId>(n - 1 - k));
  }
  const std::size_t alive = n - state.crashed;
  std::size_t first = 0;
  for (std::size_t i = 0; i + 1 < state.live.size(); ++i) {
    first += state.live[i];
    ProcessSet rest(n);
    for (std::size_t p = first; p < alive; ++p) {
      rest.insert(static_cast<ProcessId>(p));
    }
    gcs.apply_partition(
        gcs.topology().component_of(static_cast<ProcessId>(first)), rest);
  }
  return gcs;
}

TEST(FaultScheduler, TotalOverEveryReachableStateUpToEightProcesses) {
  // The geometric model's apply_next is next_change applied through the
  // Gcs, whose apply_* calls reject an infeasible change.
  for (const double crash_fraction : {0.3, 1.0}) {
    for (std::size_t n = 2; n <= 8; ++n) {
      const std::set<SchedulerState> states =
          reachable_states(n, crash_fraction < 1.0);
      for (const SchedulerState& state : states) {
        for (std::uint64_t seed = 1; seed <= 16; ++seed) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " crashed=" << state.crashed
                       << " components=" << state.live.size()
                       << " fraction=" << crash_fraction << " seed=" << seed);
          Gcs gcs = realize(state, n);
          ASSERT_EQ(gcs.crashed().count(), state.crashed);
          ASSERT_EQ(gcs.topology().component_count(),
                    state.live.size() + state.crashed);
          GeometricFaultModel model(seed, 0.0, crash_fraction);
          ASSERT_NO_THROW(model.apply_next(gcs));
          EXPECT_LT(gcs.crashed().count(), n);
        }
      }
    }
  }
}

// --- trace replay: the decoder's negative space -----------------------

const char* const kGoodTrace = R"({
  "schema": "dynvote.trace.v1",
  "processes": 8,
  "events": [
    {"at": 3,  "kind": "partition", "moved": [2, 5]},
    {"at": 9,  "kind": "merge",     "of": [0, 2]},
    {"at": 14, "kind": "crash",     "process": 7},
    {"at": 20, "kind": "recovery",  "process": 7}
  ]
})";

TEST(TraceReplay, GoodDocumentDecodesEveryEvent) {
  const std::vector<TraceEvent> events = parse_trace(kGoodTrace, 8);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kPartition);
  EXPECT_EQ(events[0].at, 3u);
  EXPECT_EQ(events[0].moved, ProcessSet(8, {2, 5}));
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kMerge);
  EXPECT_EQ(events[1].merge_a, 0u);
  EXPECT_EQ(events[1].merge_b, 2u);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kCrash);
  EXPECT_EQ(events[2].process, 7u);
  EXPECT_EQ(events[3].kind, TraceEvent::Kind::kRecovery);
}

TEST(TraceReplay, JsonRoundTripIsLossless) {
  const std::vector<TraceEvent> events = parse_trace(kGoodTrace, 8);
  const std::string rendered = trace_to_json(events, 8);
  const std::vector<TraceEvent> again = parse_trace(rendered, 8);
  ASSERT_EQ(again.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(again[i].at, events[i].at);
    EXPECT_EQ(again[i].kind, events[i].kind);
  }
}

TEST(TraceReplay, TruncatedDocumentThrows) {
  const std::string good = kGoodTrace;
  for (std::size_t cut : {good.size() / 4, good.size() / 2, good.size() - 2}) {
    EXPECT_THROW(parse_trace(good.substr(0, cut), 8), DecodeError)
        << "cut at " << cut;
  }
}

TEST(TraceReplay, OutOfOrderTimestampsThrow) {
  const char* const doc = R"({
    "schema": "dynvote.trace.v1", "processes": 8,
    "events": [
      {"at": 9, "kind": "crash", "process": 1},
      {"at": 3, "kind": "recovery", "process": 1}
    ]
  })";
  EXPECT_THROW(parse_trace(doc, 8), DecodeError);
}

TEST(TraceReplay, EqualTimestampsThrowToo) {
  const char* const doc = R"({
    "schema": "dynvote.trace.v1", "processes": 8,
    "events": [
      {"at": 3, "kind": "crash", "process": 1},
      {"at": 3, "kind": "recovery", "process": 1}
    ]
  })";
  EXPECT_THROW(parse_trace(doc, 8), DecodeError);
}

TEST(TraceReplay, UnknownEventKindThrows) {
  const char* const doc = R"({
    "schema": "dynvote.trace.v1", "processes": 8,
    "events": [{"at": 1, "kind": "reboot", "process": 1}]
  })";
  EXPECT_THROW(parse_trace(doc, 8), DecodeError);
}

TEST(TraceReplay, ProcessIdAtOrBeyondUniverseThrows) {
  const char* const doc = R"({
    "schema": "dynvote.trace.v1", "processes": 8,
    "events": [{"at": 1, "kind": "crash", "process": 8}]
  })";
  EXPECT_THROW(parse_trace(doc, 8), DecodeError);
}

TEST(TraceReplay, UniverseMismatchThrows) {
  // The document's own process count must agree with the simulation's.
  EXPECT_THROW(parse_trace(kGoodTrace, 16), DecodeError);
}

TEST(TraceReplay, UnknownMembersAreRejected) {
  const char* const doc = R"({
    "schema": "dynvote.trace.v1", "processes": 8,
    "events": [{"at": 1, "kind": "crash", "process": 1, "extra": true}]
  })";
  EXPECT_THROW(parse_trace(doc, 8), DecodeError);
}

TEST(TraceReplay, MergeOfACrashedProcessThrows) {
  // A crashed process comes back only through a recovery.  Merged back in,
  // it would sit in the view never polled, and the live majority's
  // exchange would wait for it forever.
  for (const AlgorithmKind kind :
       {AlgorithmKind::kYkd, AlgorithmKind::kOnePending}) {
    SimulationConfig config;
    config.algorithm = kind;
    config.processes = 4;
    config.changes_per_run = 2;
    config.fault_model.kind = FaultModelKind::kTrace;
    config.fault_model.trace_json = R"({
      "schema": "dynvote.trace.v1",
      "processes": 4,
      "events": [
        {"at": 2, "kind": "crash", "process": 1},
        {"at": 6, "kind": "merge", "of": [1, 0]}
      ]
    })";
    Simulation sim(config);
    EXPECT_THROW((void)sim.run_once(), PreconditionViolation)
        << to_string(kind);
  }
}

TEST(TraceReplay, BadTraceThrowsBeforeSimulationStateExists) {
  // The full path a sweep config takes: a malformed trace must abort
  // Simulation construction (DecodeError, not an assertion mid-run).
  SimulationConfig config;
  config.processes = 8;
  config.changes_per_run = 4;
  config.fault_model.kind = FaultModelKind::kTrace;
  config.fault_model.trace_json = R"({"schema":"dynvote.trace.v1")";
  EXPECT_THROW(Simulation sim(config), DecodeError);
}

}  // namespace
}  // namespace dynvote
