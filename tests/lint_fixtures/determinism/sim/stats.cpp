// Fixture: one of each determinism hazard in a result-affecting directory.
//   1. unseeded libc randomness            (rand)
//   2. a wall-clock read                   (time)
//   3. a pointer-keyed ordered container   (std::map<const Widget*, ...>)
//   4. an unordered container, wherever it is named: the include, a
//      `using` alias and a local           (unordered_map, unordered_multimap)
#include <cstdlib>
#include <ctime>
#include <map>
#include <unordered_map>

namespace fixture {

struct Widget {};
using Samples = std::unordered_map<int, double>;

double noisy_mean() {
  const int jitter = rand();
  const auto stamp = time(nullptr);

  std::map<const Widget*, int> by_address;

  Samples samples;
  std::unordered_multimap<int, int> links;
  double total = 0.0;
  for (const auto& [id, value] : samples) {
    total += value;
  }
  return total + jitter + static_cast<double>(stamp) +
         static_cast<double>(by_address.size() + links.size());
}

}  // namespace fixture
