// Fixture: emission sites whose arguments are pure reads -- plain members,
// arithmetic on them, a const accessor -- plus one impure argument silenced
// by the documented annotation.  dvlint must report nothing here.
#pragma once

#include <cstdint>

#define DV_TRACE_INSTANT(name, a0, a1) (void)(a1)

namespace fixture {

class PureEmitter {
 public:
  void observe_round() {
    DV_TRACE_INSTANT("round", rounds_, 0);
    DV_TRACE_INSTANT("round_cost", rounds_ * 3, 0);
    DV_TRACE_INSTANT("view_installed", view_id(), rounds_ + 1);
    // The argument mutates, but the site documents why that is safe
    // here (fixture exercises the opt-out path).
    DV_TRACE_INSTANT("annotated", ++samples_, 0);  // dvlint: ignore(trace-purity)
  }

  std::uint64_t view_id() const { return view_; }

 private:
  std::uint64_t samples_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t view_ = 0;
};

}  // namespace fixture
