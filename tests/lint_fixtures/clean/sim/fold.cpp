// Fixture: legitimate uses of otherwise-flagged constructs.  dvlint must
// report nothing here.
#include <ctime>
#include <map>

namespace fixture {

// Keyed on a stable id, so every run iterates in the same order.
double total_weight(const std::map<int, double>& weights) {
  double total = 0.0;
  for (const auto& [id, w] : weights) {
    total += w;
  }
  return total;
}

// Diagnostic timestamp only; never folded into simulation results.
long log_stamp() {
  return static_cast<long>(time(nullptr));  // dvlint: ignore(determinism)
}

}  // namespace fixture
