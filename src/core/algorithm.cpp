#include "core/algorithm.hpp"

#include <stdexcept>

#include "core/dfls.hpp"
#include "core/mr1p.hpp"
#include "core/one_pending.hpp"
#include "core/simple_majority.hpp"
#include "core/ykd.hpp"
#include "util/assert.hpp"

namespace dynvote {

PrimaryComponentAlgorithm::PrimaryComponentAlgorithm(ProcessId self,
                                                     View initial_view)
    : self_(self), initial_view_(initial_view) {
  DV_REQUIRE(initial_view_.members.contains(self_),
             "process must be a member of its initial view");
}

void PrimaryComponentAlgorithm::incoming_messages(
    std::span<const Delivery> batch) {
  for (const Delivery& d : batch) (void)incoming_message(*d.message, d.sender);
}

void PrimaryComponentAlgorithm::incoming_messages_to_group(
    std::span<PrimaryComponentAlgorithm* const> group,
    std::span<const Delivery> batch) {
  for (PrimaryComponentAlgorithm* member : group) {
    member->incoming_messages(batch);
  }
}

bool PrimaryComponentAlgorithm::restart() { return false; }

void PrimaryComponentAlgorithm::save(Encoder& /*enc*/) const {
  throw std::logic_error("algorithm state is not saved as bytes");
}

void PrimaryComponentAlgorithm::load(Decoder& /*dec*/) {
  throw std::logic_error("algorithm state is not loaded from bytes");
}

std::vector<AlgorithmKind> all_algorithm_kinds() {
  return {AlgorithmKind::kYkd,         AlgorithmKind::kYkdUnoptimized,
          AlgorithmKind::kDfls,        AlgorithmKind::kOnePending,
          AlgorithmKind::kMr1p,        AlgorithmKind::kSimpleMajority};
}

std::string_view to_string(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kSimpleMajority: return "simple-majority";
    case AlgorithmKind::kYkd: return "ykd";
    case AlgorithmKind::kYkdUnoptimized: return "ykd-unoptimized";
    case AlgorithmKind::kDfls: return "dfls";
    case AlgorithmKind::kOnePending: return "1-pending";
    case AlgorithmKind::kMr1p: return "mr1p";
  }
  return "unknown";
}

std::optional<AlgorithmKind> algorithm_kind_from_string(std::string_view name) {
  for (AlgorithmKind kind : all_algorithm_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

std::unique_ptr<PrimaryComponentAlgorithm> make_algorithm(
    AlgorithmKind kind, ProcessId self, const View& initial_view) {
  switch (kind) {
    case AlgorithmKind::kSimpleMajority:
      return std::make_unique<SimpleMajority>(self, initial_view);
    case AlgorithmKind::kYkd:
      return std::make_unique<Ykd>(self, initial_view, YkdOptions{.optimized = true});
    case AlgorithmKind::kYkdUnoptimized:
      return std::make_unique<Ykd>(self, initial_view, YkdOptions{.optimized = false});
    case AlgorithmKind::kDfls:
      return std::make_unique<Dfls>(self, initial_view);
    case AlgorithmKind::kOnePending:
      return std::make_unique<OnePending>(self, initial_view);
    case AlgorithmKind::kMr1p:
      return std::make_unique<Mr1p>(self, initial_view);
  }
  DV_ASSERT_MSG(false, "unreachable: unknown AlgorithmKind");
  return nullptr;
}

}  // namespace dynvote
