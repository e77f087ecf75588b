#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/simple_majority.hpp"
#include "gcs/gcs.hpp"
#include "sim/experiment.hpp"
#include "sim_test_util.hpp"

namespace dynvote {
namespace {

TEST(SimpleMajority, PrimaryIffQuorumOfInitialView) {
  const View initial{1, ProcessSet::full(7)};
  SimpleMajority alg(0, initial);
  EXPECT_TRUE(alg.in_primary());

  alg.view_changed(View{2, ProcessSet(7, {0, 1, 2, 3})});
  EXPECT_TRUE(alg.in_primary());  // 4 of 7

  alg.view_changed(View{3, ProcessSet(7, {0, 1, 2})});
  EXPECT_FALSE(alg.in_primary());  // 3 of 7
}

TEST(SimpleMajority, ExactHalfUsesLexicalTieBreak) {
  const View initial{1, ProcessSet::full(4)};
  SimpleMajority with_lowest(0, initial);
  with_lowest.view_changed(View{2, ProcessSet(4, {0, 3})});
  EXPECT_TRUE(with_lowest.in_primary());  // half including process 0

  SimpleMajority without_lowest(1, initial);
  without_lowest.view_changed(View{2, ProcessSet(4, {1, 2})});
  EXPECT_FALSE(without_lowest.in_primary());
}

TEST(SimpleMajority, NeverPiggybacksAnything) {
  const View initial{1, ProcessSet::full(3)};
  SimpleMajority alg(0, initial);
  EXPECT_EQ(alg.outgoing_message_poll(Message::from_text("app")), std::nullopt);
}

TEST(SimpleMajority, StripsForeignProtocolPayloads) {
  const View initial{1, ProcessSet::full(3)};
  SimpleMajority alg(0, initial);
  Message m = Message::from_text("data");
  m.protocol = make_payload<GcRoundPayload>();
  const Message out = alg.incoming_message(std::move(m), 1);
  EXPECT_FALSE(out.has_protocol());
  EXPECT_EQ(out.app_data, Message::from_text("data").app_data);
}

TEST(SimpleMajority, RecoversInstantlyOnRemerge) {
  Gcs gcs(AlgorithmKind::kSimpleMajority, 6);
  gcs.apply_partition(0, ProcessSet(6, {0, 1, 2}));
  // {3,4,5} is half without process 0: no primary anywhere...
  EXPECT_FALSE(gcs.algorithm(4).in_primary());
  // ...but {0,1,2} is half *with* process 0:
  EXPECT_TRUE(gcs.algorithm(0).in_primary());
  gcs.apply_merge(0, 1);
  EXPECT_TRUE(test::all_in_primary(gcs, ProcessSet::full(6)));
}

TEST(SimpleMajority, DebugInfoTracksLastDeclaredPrimary) {
  const View initial{1, ProcessSet::full(5)};
  SimpleMajority alg(2, initial);
  alg.view_changed(View{4, ProcessSet(5, {1, 2, 3})});
  EXPECT_EQ(alg.debug_info().last_primary.number, 4u);
  alg.view_changed(View{5, ProcessSet(5, {2})});
  // Not primary now; the debug record keeps the last declared one.
  EXPECT_EQ(alg.debug_info().last_primary.number, 4u);
  EXPECT_EQ(alg.debug_info().ambiguous_count, 0u);
}

// Simple majority is stateless, so its availability is a function of the
// topology alone, and the topology is a Markov chain that an enumerator
// can follow exactly.  The chain, from the thesis's driver loop (§2.2) and
// DESIGN's fault schedule: each change is a partition or a merge, each
// with probability 1/2 when both are feasible.  A partition picks a
// component of two or more members uniformly, a split size k uniformly in
// [1, s-1] and the k members that move uniformly; a merge picks two
// components uniformly.  No change looks at process ids, so the state is
// the multiset of component sizes plus the size of process 0's component,
// which the exact-half tie-break needs.
class SizeChain {
 public:
  /// Sizes of the components without process 0 (sorted), and the size of
  /// process 0's.
  using State = std::pair<std::vector<std::size_t>, std::size_t>;

  /// All `processes` connected.
  explicit SizeChain(std::size_t processes) : processes_(processes) {
    law_[State{{}, processes}] = 1.0;
  }

  /// Apply one change to every state.
  void step() {
    std::map<State, double> next;
    for (const auto& [state, p] : law_) {
      const auto& [others, own] = state;
      std::vector<std::size_t> sizes = others;
      sizes.push_back(own);  // index others.size() is process 0's
      std::size_t splittable = 0;
      for (std::size_t s : sizes) splittable += s >= 2 ? 1 : 0;
      const bool can_merge = sizes.size() >= 2;
      const double partition_p =
          splittable == 0 ? 0.0 : (can_merge ? 0.5 : 1.0);
      const auto add = [&](std::vector<std::size_t> rest, std::size_t self,
                           double q) {
        std::sort(rest.begin(), rest.end());
        next[State{std::move(rest), self}] += q;
      };
      for (std::size_t i = 0; i < sizes.size() && partition_p > 0; ++i) {
        const std::size_t s = sizes[i];
        if (s < 2) continue;
        for (std::size_t k = 1; k < s; ++k) {
          const double q = p * partition_p / static_cast<double>(splittable) /
                           static_cast<double>(s - 1);
          std::vector<std::size_t> rest = others;
          if (i == others.size()) {
            // Process 0 is among the k movers with probability k/s.
            rest.push_back(s - k);
            add(rest, k, q * static_cast<double>(k) / static_cast<double>(s));
            rest.back() = k;
            add(rest, s - k,
                q * static_cast<double>(s - k) / static_cast<double>(s));
          } else {
            rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
            rest.push_back(k);
            rest.push_back(s - k);
            add(std::move(rest), own, q);
          }
        }
      }
      if (!can_merge) continue;
      const double pairs =
          static_cast<double>(sizes.size() * (sizes.size() - 1) / 2);
      const double q = p * (1.0 - partition_p) / pairs;
      for (std::size_t a = 0; a < sizes.size(); ++a) {
        for (std::size_t b = a + 1; b < sizes.size(); ++b) {
          std::vector<std::size_t> rest;
          for (std::size_t i = 0; i < others.size(); ++i) {
            if (i != a && i != b) rest.push_back(others[i]);
          }
          if (b == others.size()) {
            add(std::move(rest), own + sizes[a], q);
          } else {
            rest.push_back(sizes[a] + sizes[b]);
            add(std::move(rest), own, q);
          }
        }
      }
    }
    law_ = std::move(next);
  }

  /// Probability that some component is a quorum of the initial view: a
  /// strict majority, or exactly half with process 0 in it.
  double availability() const {
    double available = 0.0;
    for (const auto& [state, p] : law_) {
      bool primary = 2 * state.second >= processes_;
      for (std::size_t s : state.first) primary = primary || 2 * s > processes_;
      if (primary) available += p;
    }
    return available;
  }

 private:
  std::size_t processes_;
  std::map<State, double> law_;
};

// The enumerator against independently computed exact values (rational
// arithmetic): a fresh N=64 world is always available after one change,
// and 89.93616% and 91.56980% after two and three.  The count of
// components changes parity at every change, which is why availability
// alternates.
TEST(SimpleMajorityExact, FreshStartAtSixtyFourProcesses) {
  SizeChain chain(64);
  const double expected[] = {100.0, 89.93616, 91.56980};
  for (double percent : expected) {
    chain.step();
    EXPECT_NEAR(100.0 * chain.availability(), percent, 5e-6);
  }
}

// The simulator's simple-majority estimates must cover the exact values:
// at 20,000 fresh-start runs each lies inside the 99.9% binomial interval
// around the chain's answer.
TEST(SimpleMajorityExact, SimulatorEstimatesCoverTheChain) {
  constexpr std::uint64_t kRuns = 20'000;
  constexpr double kZ = 3.2905;  // two-sided 99.9%
  SizeChain chain(64);
  for (std::size_t changes = 1; changes <= 3; ++changes) {
    SCOPED_TRACE(std::to_string(changes) + " changes");
    chain.step();
    const double exact = chain.availability();
    CaseSpec spec;
    spec.algorithm = AlgorithmKind::kSimpleMajority;
    spec.processes = 64;
    spec.changes = changes;
    spec.runs = kRuns;
    const CaseResult result = run_case(spec);
    ASSERT_EQ(result.runs, kRuns);
    const double estimate =
        static_cast<double>(result.successes) / static_cast<double>(kRuns);
    const double half_width =
        kZ * std::sqrt(exact * (1.0 - exact) / static_cast<double>(kRuns));
    EXPECT_LE(std::abs(estimate - exact), half_width)
        << "estimate " << 100.0 * estimate << "%, exact " << 100.0 * exact
        << "%";
  }
}

}  // namespace
}  // namespace dynvote
