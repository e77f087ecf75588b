#include "core/dfls.hpp"

#include "util/assert.hpp"

namespace dynvote {

Dfls::Dfls(ProcessId self, const View& initial_view)
    : YkdFamilyBase(self, initial_view, PruneMode::kGlobalSuperseded,
                    /*filter_constraints=*/false),
      gc_received_(initial_view.members.universe_size()) {}

void Dfls::view_changed(const View& view) {
  // Interrupted before the GC round completed: the ambiguous sessions stay.
  gc_pending_ = false;
  gc_received_.clear();
  gc_count_ = 0;
  YkdFamilyBase::view_changed(view);
}

void Dfls::on_primary_formed() {
  // Keep the ambiguous sessions for one more exchange round in the newly
  // formed primary.
  gc_pending_ = true;
  gc_number_ = last_primary_.number;
  gc_received_.clear();
  gc_count_ = 0;

  auto gc = make_payload<GcRoundPayload>();
  gc->formed_number = gc_number_;
  stage(std::move(gc));
}

void Dfls::save_extra(Encoder& enc) const {
  enc.put_bool(gc_pending_);
  enc.put_varint(gc_number_);
  gc_received_.encode(enc);
}

void Dfls::load_extra(Decoder& dec) {
  gc_pending_ = dec.get_bool();
  gc_number_ = dec.get_varint();
  gc_received_ = ProcessSet::decode(dec, initial_view_.members.universe_size());
  gc_count_ = gc_received_.count();
}

void Dfls::handle_extra_payload(const ProtocolPayload& payload,
                                ProcessId sender) {
  if (payload.type() != PayloadType::kGcRound || !gc_pending_) return;
  const auto& gc = static_cast<const GcRoundPayload&>(payload);
  if (gc.formed_number != gc_number_) return;
  // The base admitted only this view's traffic, so senders are members and
  // counting distinct ones up to the view size is the set equality.
  DV_ASSERT_MSG(current_view().members.contains(sender),
                "GC round from a non-member of the current view");
  if (gc_received_.contains(sender)) return;
  gc_received_.insert(sender);
  if (++gc_count_ == view_size()) {
    if (!ambiguous_.empty()) note_state_mutated();
    ambiguous_.clear();
    gc_pending_ = false;
  }
}

}  // namespace dynvote
