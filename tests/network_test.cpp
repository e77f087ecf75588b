// Delivery and flush semantics of the in-flight message store -- the
// mechanism that turns connectivity changes into interrupted protocol
// rounds.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "gcs/network.hpp"
#include "util/assert.hpp"

namespace dynvote {
namespace {

struct Delivery {
  ProcessId recipient;
  ProcessId sender;
  std::string text;

  bool operator==(const Delivery&) const = default;
};

class NetworkTest : public ::testing::Test {
 protected:
  // The network callbacks are non-owning (FunctionRef), so the recording
  // callable must outlive the calls that use it: it lives in the fixture,
  // and recorder() hands out references to it.  Each per-multicast call is
  // logged as one Delivery per recipient, in ascending id order.
  struct Recorder {
    std::vector<Delivery>* log;
    void operator()(const Message& m, ProcessId s,
                    const ProcessSet& recipients) const {
      const std::string text(
          reinterpret_cast<const char*>(m.app_data.data()), m.app_data.size());
      recipients.for_each(
          [&](ProcessId r) { log->push_back({r, s, text}); });
    }
  };

  Network::DeliverFn recorder() { return recorder_; }

  std::vector<Delivery> log;
  Recorder recorder_{&log};
};

TEST_F(NetworkTest, DeliverAllReachesWholeScope) {
  Network net;
  net.send(1, ProcessSet(4, {0, 1, 2}), Message::from_text("x"));
  EXPECT_FALSE(net.idle());
  const std::size_t n = net.deliver_all(recorder());
  EXPECT_EQ(n, 3u);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(log, (std::vector<Delivery>{{0, 1, "x"}, {1, 1, "x"}, {2, 1, "x"}}));
}

TEST_F(NetworkTest, SenderMustBeInScope) {
  Network net;
  EXPECT_THROW(net.send(3, ProcessSet(4, {0, 1}), Message::empty()),
               PreconditionViolation);
}

TEST_F(NetworkTest, DeliveryOrderIsSendOrder) {
  Network net;
  const ProcessSet scope(4, {0, 1});
  net.send(0, scope, Message::from_text("first"));
  net.send(1, scope, Message::from_text("second"));
  net.deliver_all(recorder());
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].text, "first");
  EXPECT_EQ(log[2].text, "second");
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
  EXPECT_EQ(log, (std::vector<Delivery>{{0, 0, "fromA"},
                                        {1, 0, "fromA"},
                                        {2, 3, "fromB"},
                                        {3, 3, "fromB"},
                                        {4, 3, "fromB"}}));
}

TEST_F(NetworkTest, PartitionFlushCrossDeliveryReachesFarSideAsAWhole) {
  Network net;
  const ProcessSet comp(5, {0, 1, 2, 3, 4});
  net.send(2, comp, Message::from_text("crosses"));
  net.flush_for_partition(comp, ProcessSet(5, {0, 1}), ProcessSet(5, {2, 3, 4}),
                          recorder(), [](ProcessId) { return true; });
  // Sender side {2,3,4} first, then the far side {0,1} -- everyone got it.
  std::vector<ProcessId> recipients;
  for (const auto& d : log) recipients.push_back(d.recipient);
  EXPECT_EQ(recipients, (std::vector<ProcessId>{2, 3, 4, 0, 1}));
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
  EXPECT_EQ(log, (std::vector<Delivery>{{0, 0, "m"}, {1, 0, "m"}}));
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
