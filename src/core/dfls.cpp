#include "core/dfls.hpp"

#include "util/assert.hpp"

namespace dynvote {

Dfls::Dfls(ProcessId self, const View& initial_view)
    : YkdFamilyBase(self, initial_view, PruneMode::kGlobalSuperseded,
                    /*filter_constraints=*/false) {
  // Writes the base's genesis a second time, once per built world.
  restart();
}

bool Dfls::restart() {
  gc_pending_ = false;
  gc_number_ = 0;
  gc_ = Tally(initial_view_.members.universe_size(),
              initial_view_.members.count());
  return YkdFamilyBase::restart();
}

void Dfls::view_changed(const View& view) {
  // Interrupted before the GC round completed: the ambiguous sessions stay.
  gc_pending_ = false;
  gc_.reset(view.members.count());
  YkdFamilyBase::view_changed(view);
}

void Dfls::on_primary_formed() {
  // Keep the ambiguous sessions for one more exchange round in the newly
  // formed primary.
  gc_pending_ = true;
  gc_number_ = last_primary_.number;
  gc_.reset(view_size());

  reuse_payload(gc_pool_).formed_number = gc_number_;
  stage(gc_pool_);
}

bool Dfls::handle_extra_payload(const ProtocolPayload& payload,
                                ProcessId sender) {
  if (payload.type() != PayloadType::kGcRound || !gc_pending_) return false;
  const auto& gc = static_cast<const GcRoundPayload&>(payload);
  if (gc.formed_number != gc_number_) return false;
  DV_ASSERT_MSG(current_view().members.contains(sender),
                "GC round from a non-member of the current view");
  return gc_.add(sender);
}

void Dfls::complete_extra_round(const YkdFamilyBase& leader) {
  gc_ = static_cast<const Dfls&>(leader).gc_;  // what its own receipt filled
  ambiguous_.clear();
  gc_pending_ = false;
}

std::optional<SessionNumber> Dfls::extra_round_start() const {
  if (!gc_pending_ || !gc_.empty()) return std::nullopt;
  return gc_number_;
}

}  // namespace dynvote
