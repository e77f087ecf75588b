// DFLS: the De Prisco / Fekete / Lynch / Shvartsman variant (PODC'98).
//
// Unoptimized YKD plus one extra message round: ambiguous sessions are not
// deleted when a primary is formed; the members of the new primary first
// exchange one more round, and only a process that hears that round from
// everyone deletes them.  Until then the stale sessions keep constraining
// future primaries, which costs roughly 3% availability versus YKD at
// moderate change rates (thesis §4.1).  Three message rounds total.
#pragma once

#include "core/ykd_family.hpp"

namespace dynvote {

class Dfls final : public YkdFamilyBase {
 public:
  Dfls(ProcessId self, const View& initial_view);

  void view_changed(const View& view) override;
  std::string_view name() const override { return "dfls"; }

 protected:
  void on_primary_formed() override;
  void handle_extra_payload(const ProtocolPayload& payload,
                            ProcessId sender) override;

 private:
  bool gc_pending_ = false;
  SessionNumber gc_number_ = 0;
  /// The GC round's senders; all of the new primary must send.
  Tally gc_;
};

}  // namespace dynvote
