// Fixture: emission sites whose arguments perturb the run -- an RNG draw,
// an increment, an assignment, and a container mutator inside DV_TRACE_*
// argument lists.  dvlint must flag all four: the trace-off and trace-on
// executions would diverge.
#pragma once

#include <cstdint>
#include <vector>

#define DV_TRACE_INSTANT(name, a0, a1) (void)(a1)
#define DV_TRACE_SPAN(name, a0, a1) (void)(a1)

namespace fixture {

class ImpureEmitter {
 public:
  void observe_round() {
    DV_TRACE_INSTANT("noise", rng.next(), 0);
    DV_TRACE_INSTANT("round", ++rounds_, 0);
    DV_TRACE_SPAN("window", rounds_ = 0, 1);
    DV_TRACE_INSTANT("backlog", (backlog_.clear(), 0), 0);
  }

 private:
  struct Rng {
    std::uint64_t next() { return 4; }
  };

  Rng rng;
  std::uint64_t rounds_ = 0;
  std::vector<std::uint64_t> backlog_;
};

}  // namespace fixture
