#include "core/dfls.hpp"

#include "util/assert.hpp"

namespace dynvote {

Dfls::Dfls(ProcessId self, const View& initial_view)
    : YkdFamilyBase(self, initial_view, PruneMode::kGlobalSuperseded,
                    /*filter_constraints=*/false),
      gc_(initial_view.members.universe_size(),
          initial_view.members.count()) {}

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

  auto gc = make_payload<GcRoundPayload>();
  gc->formed_number = gc_number_;
  stage(std::move(gc));
}

void Dfls::handle_extra_payload(const ProtocolPayload& payload,
                                ProcessId sender) {
  if (payload.type() != PayloadType::kGcRound || !gc_pending_) return;
  const auto& gc = static_cast<const GcRoundPayload&>(payload);
  if (gc.formed_number != gc_number_) return;
  DV_ASSERT_MSG(current_view().members.contains(sender),
                "GC round from a non-member of the current view");
  gc_.add(sender);
  if (gc_.reached()) {
    ambiguous_.clear();
    gc_pending_ = false;
  }
}

}  // namespace dynvote
