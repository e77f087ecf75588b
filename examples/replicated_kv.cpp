// A replicated key-value store built on the primary-component API -- the
// kind of system the thesis's introduction motivates (partitioned
// replicated databases, ISIS/Phoenix-style toolkits).
//
// Each replica owns a PrimaryComponentAlgorithm instance.  Writes are
// accepted only by replicas inside the primary component (so at most one
// component ever accepts writes: no split-brain), are multicast to the
// component through the algorithm's piggyback interface, and are replayed
// to rejoining replicas when partitions heal.  Reads are served anywhere,
// tagged stale/authoritative by primary membership.
//
// The demo partitions a 5-replica store, shows the minority refusing
// writes while the majority continues, heals the partition, and verifies
// all replicas converge.  It exits 1 if any claim it prints fails: a write
// refused inside the primary, a write accepted outside it, or replicas
// that differ after the heal.
//
// Build & run:  ./build/examples/replicated_kv
#include <iostream>
#include <map>
#include <string>

#include "gcs/gcs.hpp"
#include "sim/invariants.hpp"
#include "util/codec.hpp"

using namespace dynvote;

namespace {

// --- the application: one KV replica per process -------------------------

struct WriteOp {
  std::uint64_t sequence = 0;
  std::string key;
  std::string value;

  std::vector<std::byte> encode() const {
    Encoder enc;
    enc.put_varint(sequence);
    enc.put_string(key);
    enc.put_string(value);
    return enc.take();
  }
  static WriteOp decode(std::span<const std::byte> bytes) {
    Decoder dec(bytes);
    WriteOp op;
    op.sequence = dec.get_varint();
    op.key = dec.get_string();
    op.value = dec.get_string();
    dec.finish();
    return op;
  }
};

class KvReplica {
 public:
  explicit KvReplica(ProcessId id) : id_(id) {}

  /// Apply a replicated write (idempotent by sequence number).
  void apply(const WriteOp& op) {
    if (op.sequence <= last_applied_ && last_applied_ != 0) return;
    data_[op.key] = op.value;
    last_applied_ = std::max(last_applied_, op.sequence);
  }

  std::optional<std::string> read(const std::string& key) const {
    const auto it = data_.find(key);
    if (it == data_.end()) return std::nullopt;
    return it->second;
  }

  /// State transfer: adopt a complete snapshot from a fresher replica.
  void adopt_snapshot(const std::map<std::string, std::string>& data,
                      std::uint64_t sequence) {
    if (sequence <= last_applied_) return;
    data_ = data;
    last_applied_ = sequence;
  }

  std::uint64_t last_applied() const { return last_applied_; }
  const std::map<std::string, std::string>& data() const { return data_; }
  ProcessId id() const { return id_; }

 private:
  ProcessId id_;
  std::map<std::string, std::string> data_;
  std::uint64_t last_applied_ = 0;
};

// --- the store: replicas + GCS + primary gating --------------------------

class ReplicatedStore {
 public:
  explicit ReplicatedStore(std::size_t replicas)
      : gcs_(AlgorithmKind::kYkd, replicas), checker_(gcs_) {
    for (ProcessId p = 0; p < replicas; ++p) replicas_.emplace_back(p);
  }

  /// Submit a write at `replica`.  Succeeds only if that replica is inside
  /// the primary component; the write is multicast to the whole component
  /// as the application payload of a piggybacked message.
  bool write(ProcessId replica, std::string key, std::string value) {
    if (!gcs_.algorithm(replica).in_primary()) return false;
    WriteOp op{++next_sequence_, std::move(key), std::move(value)};
    Message m;
    m.app_data = op.encode();
    // Per the interface contract, the outgoing message goes through the
    // algorithm, which may piggyback protocol state onto it.
    auto out = gcs_.algorithm(replica).outgoing_message_poll(m);
    const Message& to_send = out.has_value() ? *out : m;

    // Deliver to the replica's component (including itself) through each
    // recipient's incoming_message, which strips protocol state.
    const auto& component =
        gcs_.topology().component(gcs_.topology().component_of(replica));
    component.for_each([&](ProcessId r) {
      const Message app = gcs_.algorithm(r).incoming_message(to_send, replica);
      replicas_[r].apply(WriteOp::decode(app.app_data));
    });
    return true;
  }

  struct ReadResult {
    std::optional<std::string> value;
    bool authoritative = false;
  };

  ReadResult read(ProcessId replica, const std::string& key) const {
    return {replicas_[replica].read(key),
            gcs_.algorithm(replica).in_primary()};
  }

  /// Heal/cause partitions, then run protocol rounds to stability and
  /// bring rejoining replicas up to date from the freshest one.
  void partition(const ProcessSet& moved) {
    gcs_.apply_partition(gcs_.topology().component_of(moved.lowest()), moved);
    settle();
  }
  void heal_all() {
    while (gcs_.topology().component_count() > 1) gcs_.apply_merge(0, 1);
    settle();
    anti_entropy();
  }

  const Gcs& gcs() const { return gcs_; }

  /// Do all replicas hold the same data?
  bool converged() const {
    for (const KvReplica& r : replicas_) {
      if (r.data() != replicas_.front().data()) return false;
    }
    return true;
  }

 private:
  void settle() {
    while (gcs_.step_round()) checker_.check(gcs_);
  }

  /// After a heal, transfer state from the most up-to-date replica -- a
  /// stand-in for the log/state transfer a real system runs on primary
  /// change.  Only replicas that were in the primary ever accepted writes,
  /// so "most up-to-date" is well defined.
  void anti_entropy() {
    const KvReplica* freshest = &replicas_[0];
    for (const KvReplica& r : replicas_) {
      if (r.last_applied() > freshest->last_applied()) freshest = &r;
    }
    for (KvReplica& r : replicas_) {
      r.adopt_snapshot(freshest->data(), freshest->last_applied());
    }
  }

  Gcs gcs_;
  InvariantChecker checker_;
  std::vector<KvReplica> replicas_;
  std::uint64_t next_sequence_ = 0;
};

void show(const ReplicatedStore& store, ProcessId replica,
          const std::string& key) {
  const auto r = store.read(replica, key);
  std::cout << "  replica " << replica << ": " << key << " = "
            << (r.value ? *r.value : "<missing>")
            << (r.authoritative ? "  [in primary]" : "  [stale ok]") << '\n';
}

}  // namespace

int main() {
  ReplicatedStore store(5);
  bool claims_hold = true;
  // Submits a write, prints its outcome, and notes a failed claim unless
  // the outcome is `expect_accepted`.
  const auto write = [&](ProcessId replica, const std::string& key,
                         const std::string& value, bool expect_accepted) {
    const bool accepted = store.write(replica, key, value);
    std::cout << "  write(replica " << replica << ", " << key << " = "
              << value << "): " << (accepted ? "ACCEPTED" : "REFUSED");
    if (accepted != expect_accepted) claims_hold = false;
  };

  std::cout << "All five replicas connected; any replica accepts writes:\n";
  write(0, "user:42", "alice", true);
  std::cout << '\n';
  show(store, 4, "user:42");

  std::cout << "\nPartition {3,4} away.  The majority {0,1,2} keeps the "
               "primary:\n";
  store.partition(ProcessSet(5, {3, 4}));
  write(0, "user:42", "bob", true);
  std::cout << '\n';
  write(4, "user:42", "mallory", false);
  std::cout << "   <- minority cannot accept writes\n";
  show(store, 0, "user:42");
  show(store, 4, "user:42");

  std::cout << "\nThe primary component can keep shrinking (dynamic "
               "voting): partition {2} away from {0,1,2}:\n";
  store.partition(ProcessSet(5, {2}));
  write(0, "user:43", "carol", true);
  std::cout << "   <- {0,1} is a majority of {0,1,2}\n";

  std::cout << "\nHeal everything; replicas converge on the primary's "
               "history:\n";
  store.heal_all();
  show(store, 3, "user:42");
  show(store, 4, "user:43");
  if (!store.converged()) claims_hold = false;
  std::cout << "  (no write was ever accepted in two places at once)\n";
  if (!claims_hold) {
    std::cerr << "replicated_kv: a claim above does not hold\n";
    return 1;
  }
  return 0;
}
