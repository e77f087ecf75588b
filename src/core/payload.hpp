// Protocol payloads piggybacked onto application messages.
//
// Every payload echoes the ViewId of the view it was sent in; receivers
// discard payloads from views other than their current one (a real
// view-synchronous GCS makes cross-view leakage rare, but the partial
// flush performed on a partition delivers old-view traffic, and protocol
// state machines must never act on stale rounds).
//
// Payloads travel inside the simulator as counted references (PayloadRef),
// but each one has a binary wire form (type byte + view id + body) so
// message sizes can be measured -- the thesis reports protocol state
// staying under ~2 KB at 64 processes -- and so the library can be bound to
// a real transport.  The type is a tag each payload stores when it is
// built, so the per-delivery dispatch reads a field instead of making a
// virtual call.
//
// A decoded YKD state must be one a process can reach: no lastFormed entry
// may follow the lastPrimary beside it (check_last_formed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/types.hpp"
#include "util/codec.hpp"

namespace dynvote {

enum class PayloadType : std::uint8_t {
  /// Round 1 of the YKD family: full state exchange.
  kStateExchange = 1,
  /// Round 2 of the YKD family: commitment to form the proposed primary.
  kAttempt = 2,
  /// DFLS round 3: permission to garbage-collect ambiguous sessions.
  kGcRound = 3,
  /// MR1p round 1: a process's single pending ambiguous session.
  kMr1pPending = 4,
  /// MR1p round 2: what the sender knows about someone's pending session.
  kMr1pReply = 5,
  /// MR1p round 3: the sender's call on how its pending session resolves.
  kMr1pResolve = 6,
  /// MR1p round 4: request to declare the current view a primary (<V,1>).
  kMr1pPropose = 7,
  /// MR1p round 5: attempt message (<attempt,V>).
  kMr1pAttempt = 8,
};

template <typename T>
class PayloadRef;

/// Abstract piggybacked payload.
struct ProtocolPayload {
  ViewId view_id = 0;

  /// Each concrete payload passes its own type, which never changes.
  explicit ProtocolPayload(PayloadType type) : type_(type) {}
  /// A copy is a new object that nobody holds yet: it takes the view id
  /// and the type, never the holder count.
  ProtocolPayload(const ProtocolPayload& other)
      : view_id(other.view_id), type_(other.type_) {}
  ProtocolPayload& operator=(const ProtocolPayload& other) {
    view_id = other.view_id;
    return *this;
  }
  virtual ~ProtocolPayload() = default;
  /// The type this payload was built with.
  PayloadType type() const { return type_; }
  /// Encode everything after the (type, view_id) envelope header.
  virtual void encode_body(Encoder& enc) const = 0;

 private:
  template <typename T>
  friend class PayloadRef;

  const PayloadType type_;
  /// How many PayloadRefs hold this object.  A plain integer, not an
  /// atomic: every holder belongs to the world that made the payload, and
  /// a world runs on one thread at a time (DESIGN.md §4e).
  mutable std::uint32_t refs_ = 0;
};

/// An owning reference to a payload, counted in the payload itself.  It
/// behaves like a std::shared_ptr without the atomic count: once a process
/// has started a second thread, every shared_ptr copy is a lock-prefixed
/// read-modify-write, and the simulated GCS copies a reference on every
/// delivery.  Payloads never leave the world that made them -- a
/// transport would carry bytes (encode_payload / decode_payload) -- so the
/// count never races.  Built by make_payload, narrowed by
/// static_payload_cast.
template <typename T>
class PayloadRef {
 public:
  PayloadRef() = default;
  PayloadRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  PayloadRef(const PayloadRef& other) : ptr_(other.ptr_) { retain(); }
  PayloadRef(PayloadRef&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  /// Widening (derived to base, mutable to const), like shared_ptr's.
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  PayloadRef(const PayloadRef<U>& other)  // NOLINT(google-explicit-constructor)
      : ptr_(other.ptr_) {
    retain();
  }
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  // NOLINTNEXTLINE(google-explicit-constructor)
  PayloadRef(PayloadRef<U>&& other) noexcept
      : ptr_(std::exchange(other.ptr_, nullptr)) {}
  ~PayloadRef() { drop(); }

  PayloadRef& operator=(const PayloadRef& other) {
    PayloadRef(other).swap(*this);
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    PayloadRef(std::move(other)).swap(*this);
    return *this;
  }

  T* get() const { return ptr_; }
  T& operator*() const { return *ptr_; }
  T* operator->() const { return ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }

  /// References to the payload, 0 when empty.  1 proves this is its only
  /// holder, which is when the payload pools rebuild one in place.
  long use_count() const {
    return ptr_ == nullptr ? 0 : static_cast<long>(base()->refs_);
  }

  void swap(PayloadRef& other) noexcept { std::swap(ptr_, other.ptr_); }

  friend bool operator==(const PayloadRef& ref, std::nullptr_t) {
    return ref.ptr_ == nullptr;
  }

 private:
  template <typename U>
  friend class PayloadRef;
  template <typename U, typename... Args>
  friend PayloadRef<U> make_payload(Args&&... args);
  template <typename U, typename V>
  friend PayloadRef<U> static_payload_cast(PayloadRef<V>&& ref);

  const ProtocolPayload* base() const { return ptr_; }
  void retain() const {
    if (ptr_ != nullptr) ++base()->refs_;
  }
  void drop() {
    static_assert(std::is_base_of_v<ProtocolPayload, std::remove_const_t<T>>);
    if (ptr_ != nullptr && --base()->refs_ == 0) delete base();
  }

  T* ptr_ = nullptr;
};

/// A new payload, held by the returned reference alone.  One allocation,
/// as std::make_shared made.
template <typename T, typename... Args>
PayloadRef<T> make_payload(Args&&... args) {
  PayloadRef<T> ref;
  ref.ptr_ = new T(std::forward<Args>(args)...);
  ref.retain();
  return ref;
}

/// Narrow `ref` to the payload type its type() names, moving its
/// ownership (no count traffic).
template <typename T, typename U>
PayloadRef<T> static_payload_cast(PayloadRef<U>&& ref) {
  PayloadRef<T> out;
  out.ptr_ = static_cast<T*>(std::exchange(ref.ptr_, nullptr));
  return out;
}

using PayloadPtr = PayloadRef<const ProtocolPayload>;

/// Single-slot payload reuse: the payload `pool` holds, for the caller to
/// overwrite in place, when `pool` is its only holder; otherwise a new one
/// put in `pool`.  So a staged or delivered payload is never written under
/// another holder, and a sender that sends one payload per round allocates
/// none in steady state.  The caller sets every field it sends.
template <typename T>
T& reuse_payload(PayloadRef<T>& pool) {
  if (!pool || pool.use_count() > 1) pool = make_payload<T>();
  return *pool;
}

/// Round 1 of YKD / unoptimized YKD / DFLS / 1-pending: "the processes
/// exchange all of their internal state -- sending each other their
/// ambiguous sessions, last primary components, and so on" (thesis §3.1).
struct StateExchangePayload final : ProtocolPayload {
  SessionNumber session_number = 0;
  Session last_primary;
  std::vector<Session> ambiguous;
  /// lastFormed(q) for q = 0..universe-1: the last primary the sender formed
  /// that included q.  Indexed by process id over the initial universe.
  std::vector<Session> last_formed;

  StateExchangePayload() : ProtocolPayload(PayloadType::kStateExchange) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<StateExchangePayload> decode_body(Decoder& dec,
                                                      std::size_t universe);
};

/// Round 2 of the YKD family: the sender commits to the proposed session.
struct AttemptPayload final : ProtocolPayload {
  Session proposal;

  AttemptPayload() : ProtocolPayload(PayloadType::kAttempt) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<AttemptPayload> decode_body(Decoder& dec,
                                                std::size_t universe);
};

/// DFLS's extra round: once received from every member of the formed
/// primary, ambiguous sessions may be deleted.
struct GcRoundPayload final : ProtocolPayload {
  SessionNumber formed_number = 0;

  GcRoundPayload() : ProtocolPayload(PayloadType::kGcRound) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<GcRoundPayload> decode_body(Decoder& dec,
                                                std::size_t universe);
};

/// Where an MR1p process stands in its attempt to form its pending view.
enum class Mr1pStatus : std::uint8_t {
  kNone = 0,
  /// Sent the <V,1> proposal; has not seen it acknowledged by everyone.
  kSent = 1,
  /// Saw <V,1> from all members and sent the attempt message.
  kAttempt = 2,
  /// Concluded the attempt failed.
  kTryFail = 3,
};

/// MR1p round 1: the sender's pending ambiguous session plus its progress.
struct Mr1pPendingPayload final : ProtocolPayload {
  /// Whether the sender has a pending session at all (processes with none
  /// still participate in the exchange so peers can count responses).
  bool has_pending = false;
  Session pending;
  std::uint64_t num = 0;
  Mr1pStatus status = Mr1pStatus::kNone;

  Mr1pPendingPayload() : ProtocolPayload(PayloadType::kMr1pPending) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<Mr1pPendingPayload> decode_body(Decoder& dec,
                                                    std::size_t universe);
};

/// What a responder knows about a queried pending session.
enum class Mr1pVerdict : std::uint8_t {
  /// The responder has the session in its formedViews: it was formed.
  kFormed = 1,
  /// The responder is a member, has moved past it, and never formed it.
  kAborted = 2,
  /// The responder echoes its own in-progress status for the session.
  kStatusSent = 3,
  kStatusAttempt = 4,
  kStatusTryFail = 5,
};

/// One reply about one queried pending session.
struct Mr1pReplyItem {
  Session about;
  Mr1pVerdict verdict = Mr1pVerdict::kAborted;
  std::uint64_t num = 0;

  bool operator==(const Mr1pReplyItem&) const = default;
};

/// MR1p round 2: replies about every distinct pending session the sender was
/// queried on in round 1, batched into one multicast (one poll emits one
/// message, so per-session unicasts would serialize into extra rounds).
struct Mr1pReplyPayload final : ProtocolPayload {
  std::vector<Mr1pReplyItem> replies;

  Mr1pReplyPayload() : ProtocolPayload(PayloadType::kMr1pReply) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<Mr1pReplyPayload> decode_body(Decoder& dec,
                                                  std::size_t universe);
};

/// MR1p round 3: the sender's call on how its pending session resolves.
struct Mr1pResolvePayload final : ProtocolPayload {
  Session about;
  Mr1pVerdict call = Mr1pVerdict::kStatusTryFail;

  Mr1pResolvePayload() : ProtocolPayload(PayloadType::kMr1pResolve) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<Mr1pResolvePayload> decode_body(Decoder& dec,
                                                    std::size_t universe);
};

/// MR1p round 4: <V,1> -- request to declare the current view a primary.
struct Mr1pProposePayload final : ProtocolPayload {
  Session proposal;

  Mr1pProposePayload() : ProtocolPayload(PayloadType::kMr1pPropose) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<Mr1pProposePayload> decode_body(Decoder& dec,
                                                    std::size_t universe);
};

/// MR1p round 5: <attempt,V>.
struct Mr1pAttemptPayload final : ProtocolPayload {
  Session proposal;

  Mr1pAttemptPayload() : ProtocolPayload(PayloadType::kMr1pAttempt) {}
  void encode_body(Encoder& enc) const override;
  static PayloadRef<Mr1pAttemptPayload> decode_body(Decoder& dec,
                                                    std::size_t universe);
};

/// Serialize a payload: type byte, view id, then the body.
std::vector<std::byte> encode_payload(const ProtocolPayload& payload);

/// Inverse of encode_payload for a payload of a world of `universe`
/// processes; throws DecodeError on malformed input, including any session
/// drawn over another universe.
PayloadPtr decode_payload(std::span<const std::byte> bytes,
                          std::size_t universe);

/// Encoded size in bytes without materializing a copy for the caller.
std::size_t payload_wire_size(const ProtocolPayload& payload);

}  // namespace dynvote
