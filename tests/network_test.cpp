// Delivery and flush semantics of the in-flight message store -- the
// mechanism that turns connectivity changes into interrupted protocol
// rounds.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "gcs/network.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace dynvote {
namespace {

/// One message as one recipient received it.
struct Receipt {
  ProcessId recipient;
  ProcessId sender;
  std::string text;

  bool operator==(const Receipt&) const = default;
};

class NetworkTest : public ::testing::Test {
 protected:
  // The network callbacks are non-owning (FunctionRef), so the recording
  // callable must outlive the calls that use it: it lives in the fixture,
  // and recorder() hands out references to it.  Each call's recipient set
  // is kept in `calls`, and the call is logged in `log` as one Receipt per
  // recipient and message: recipients in ascending id order, each one's
  // messages in batch order.
  struct Recorder {
    std::vector<Receipt>* log;
    std::vector<ProcessSet>* calls;
    void operator()(std::span<const Delivery> batch,
                    const ProcessSet& recipients) const {
      recipients.for_each([&](ProcessId r) {
        for (const Delivery& d : batch) {
          const std::vector<std::byte>& text = d.message->app_data;
          log->push_back(
              {r, d.sender,
               std::string(reinterpret_cast<const char*>(text.data()),
                           text.size())});
        }
      });
      calls->push_back(recipients);
    }
  };

  Network::DeliverFn recorder() { return recorder_; }

  /// What `p` received, in order, as (sender, text) receipts.
  std::vector<Receipt> received(ProcessId p) const {
    std::vector<Receipt> out;
    for (const Receipt& r : log) {
      if (r.recipient == p) out.push_back(r);
    }
    return out;
  }

  /// How many calls reached `p`.
  std::size_t calls_reaching(ProcessId p) const {
    std::size_t n = 0;
    for (const ProcessSet& recipients : calls) n += recipients.contains(p);
    return n;
  }

  std::vector<Receipt> log;
  std::vector<ProcessSet> calls;
  Recorder recorder_{&log, &calls};
};

TEST_F(NetworkTest, DeliverAllReachesWholeScope) {
  Network net;
  net.send(1, ProcessSet(4, {0, 1, 2}), Message::from_text("x"));
  EXPECT_FALSE(net.idle());
  const std::size_t n = net.deliver_all(recorder());
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(log, (std::vector<Receipt>{{0, 1, "x"}, {1, 1, "x"}, {2, 1, "x"}}));
}

TEST_F(NetworkTest, SenderMustBeInScope) {
  Network net;
  EXPECT_THROW(net.send(3, ProcessSet(4, {0, 1}), Message::empty()),
               PreconditionViolation);
}

// Each recipient gets the round's messages in send order, all of them in
// one call; how recipients interleave is the caller's business.
TEST_F(NetworkTest, DeliveryOrderIsSendOrder) {
  Network net;
  const ProcessSet scope(4, {0, 1});
  net.send(0, scope, Message::from_text("first"));
  net.send(1, scope, Message::from_text("second"));
  EXPECT_EQ(net.deliver_all(recorder()), 4u);
  EXPECT_EQ(log.size(), 4u);
  for (ProcessId p : {0, 1}) {
    SCOPED_TRACE("recipient " + std::to_string(p));
    EXPECT_EQ(received(p),
              (std::vector<Receipt>{{p, 0, "first"}, {p, 1, "second"}}));
    EXPECT_EQ(calls_reaching(p), 1u);
  }
}

// Two components in flight in one round, their sends interleaved by id:
// each member gets exactly its own component's multicasts, in send order,
// in one call, and the components' batches go out in order of their first
// multicast.
TEST_F(NetworkTest, InterleavedComponentsGetOneBatchEach) {
  Network net;
  const ProcessSet evens(5, {0, 2, 4});
  const ProcessSet odds(5, {1, 3});
  net.send(0, evens, Message::from_text("e0"));
  net.send(1, odds, Message::from_text("o1"));
  net.send(2, evens, Message::from_text("e2"));
  net.send(3, odds, Message::from_text("o3"));
  net.send(4, evens, Message::from_text("e4"));

  EXPECT_EQ(net.deliver_all(recorder()), 3u * 3u + 2u * 2u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(log.size(), 13u);
  for (ProcessId p : {0, 2, 4}) {
    SCOPED_TRACE("recipient " + std::to_string(p));
    EXPECT_EQ(received(p), (std::vector<Receipt>{
                               {p, 0, "e0"}, {p, 2, "e2"}, {p, 4, "e4"}}));
    EXPECT_EQ(calls_reaching(p), 1u);
  }
  for (ProcessId p : {1, 3}) {
    SCOPED_TRACE("recipient " + std::to_string(p));
    EXPECT_EQ(received(p),
              (std::vector<Receipt>{{p, 1, "o1"}, {p, 3, "o3"}}));
    EXPECT_EQ(calls_reaching(p), 1u);
  }
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], evens);
  EXPECT_EQ(calls[1], odds);
}

// Grouping by scope needs every two scopes in flight to be equal or
// disjoint, which the Gcs guarantees by scoping each send to the sender's
// component.  A scope that overlaps another without equalling it is
// refused before anything is delivered, whether its sender is covered by
// an earlier scope or not.
TEST_F(NetworkTest, DeliveryRefusesOverlappingScopes) {
  for (const ProcessId second_sender : {1, 2}) {
    SCOPED_TRACE("second sender " + std::to_string(second_sender));
    Network net;
    net.send(0, ProcessSet(4, {0, 1}), Message::from_text("a"));
    net.send(3, ProcessSet(4, {3}), Message::from_text("b"));
    net.send(second_sender, ProcessSet(4, {1, 2}), Message::from_text("c"));
    EXPECT_THROW(net.deliver_all(recorder()), PreconditionViolation);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(net.in_flight_count(), 3u);
  }
}

Network decoded(const Network& net, std::size_t universe) {
  Encoder enc;
  net.encode(enc);
  const std::vector<std::byte> bytes = enc.take();
  Decoder dec(bytes);
  Network out = Network::decode(dec, universe);
  dec.finish();
  return out;
}

TEST_F(NetworkTest, DecodeRefusesOverlappingScopes) {
  Network equal_or_disjoint;
  equal_or_disjoint.send(0, ProcessSet(4, {0, 1}), Message::from_text("a"));
  equal_or_disjoint.send(2, ProcessSet(4, {2, 3}), Message::from_text("b"));
  equal_or_disjoint.send(1, ProcessSet(4, {0, 1}), Message::from_text("c"));
  EXPECT_EQ(decoded(equal_or_disjoint, 4).in_flight_count(), 3u);

  Network overlapping;
  overlapping.send(0, ProcessSet(4, {0, 1}), Message::from_text("a"));
  overlapping.send(2, ProcessSet(4, {1, 2}), Message::from_text("b"));
  EXPECT_THROW(decoded(overlapping, 4), DecodeError);
}

TEST_F(NetworkTest, PartitionFlushDeliversToSenderSideAlways) {
  Network net;
  const ProcessSet comp(5, {0, 1, 2, 3, 4});
  const ProcessSet side_a(5, {0, 1});
  const ProcessSet side_b(5, {2, 3, 4});
  net.send(0, comp, Message::from_text("fromA"));
  net.send(3, comp, Message::from_text("fromB"));

  net.flush_for_partition(comp, side_a, side_b, recorder(),
                          [](ProcessId) { return false; });
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(log, (std::vector<Receipt>{{0, 0, "fromA"},
                                        {1, 0, "fromA"},
                                        {2, 3, "fromB"},
                                        {3, 3, "fromB"},
                                        {4, 3, "fromB"}}));
}

TEST_F(NetworkTest, PartitionFlushCrossDeliveryReachesFarSideAsAWhole) {
  Network net;
  const ProcessSet comp(5, {0, 1, 2, 3, 4});
  const ProcessSet near_side(5, {2, 3, 4});
  const ProcessSet far_side(5, {0, 1});
  net.send(2, comp, Message::from_text("crosses"));
  net.send(0, comp, Message::from_text("stays"));
  // Only sender 2's message crosses.
  net.flush_for_partition(comp, far_side, near_side, recorder(),
                          [](ProcessId s) { return s == 2; });
  EXPECT_TRUE(net.idle());
  // Everyone got the crossing message, {0,1} also their own side's, each
  // side in one call and in send order.
  EXPECT_EQ(log.size(), 5u + 2u);
  for (ProcessId p : {0, 1}) {
    SCOPED_TRACE("recipient " + std::to_string(p));
    EXPECT_EQ(received(p), (std::vector<Receipt>{{p, 2, "crosses"},
                                                 {p, 0, "stays"}}));
  }
  for (ProcessId p : {2, 3, 4}) {
    SCOPED_TRACE("recipient " + std::to_string(p));
    EXPECT_EQ(received(p), (std::vector<Receipt>{{p, 2, "crosses"}}));
  }
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], far_side);
  EXPECT_EQ(calls[1], near_side);
}

TEST_F(NetworkTest, PartitionFlushLeavesOtherComponentsQueued) {
  Network net;
  const ProcessSet comp_x(6, {0, 1, 2});
  const ProcessSet comp_y(6, {3, 4, 5});
  net.send(0, comp_x, Message::from_text("x"));
  net.send(3, comp_y, Message::from_text("y"));

  net.flush_for_partition(comp_x, ProcessSet(6, {0}), ProcessSet(6, {1, 2}),
                          recorder(), [](ProcessId) { return false; });
  EXPECT_EQ(net.in_flight_count(), 1u);  // comp_y's message survives
  log.clear();
  calls.clear();
  net.deliver_all(recorder());
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].text, "y");
}

TEST_F(NetworkTest, MergeFlushDeliversToFullOldScope) {
  Network net;
  const ProcessSet comp(4, {0, 1});
  net.send(0, comp, Message::from_text("m"));
  net.flush_for_merge(comp, recorder());
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(log, (std::vector<Receipt>{{0, 0, "m"}, {1, 0, "m"}}));
}

TEST_F(NetworkTest, MergeFlushIgnoresOtherScopes) {
  Network net;
  net.send(0, ProcessSet(4, {0, 1}), Message::from_text("keep"));
  net.flush_for_merge(ProcessSet(4, {2, 3}), recorder());
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(net.in_flight_count(), 1u);
}

TEST_F(NetworkTest, CrossDecisionIsPerMessage) {
  Network net;
  const ProcessSet comp(4, {0, 1, 2, 3});
  net.send(0, comp, Message::from_text("a"));
  net.send(1, comp, Message::from_text("b"));
  // Only sender 1's message crosses.
  net.flush_for_partition(comp, ProcessSet(4, {0, 1}), ProcessSet(4, {2, 3}),
                          recorder(), [](ProcessId s) { return s == 1; });
  int a_deliveries = 0, b_deliveries = 0;
  for (const auto& d : log) {
    if (d.text == "a") ++a_deliveries;
    if (d.text == "b") ++b_deliveries;
  }
  EXPECT_EQ(a_deliveries, 2);  // near side only
  EXPECT_EQ(b_deliveries, 4);  // both sides
}

}  // namespace
}  // namespace dynvote
