// Tests for the simulated network: serialization + propagation timing,
// bandwidth contention, FIFO delivery and fault injection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/net/message.h"
#include "src/net/transport.h"

namespace ursa::net {
namespace {

TEST(TransportTest, PointToPointLatency) {
  sim::Simulator sim;
  Transport net(&sim);
  NetParams params;
  NodeId a = net.AddNode("a", params);
  NodeId b = net.AddNode("b", params);

  Nanos delivered = 0;
  net.Send(a, b, 4096, [&]() { delivered = sim.Now(); });
  sim.RunToCompletion();
  uint64_t wire = 4096 + params.overhead_bytes;
  Nanos expect = 2 * TransferTime(wire, params.nic_bw) + params.propagation;
  EXPECT_EQ(delivered, expect);
}

TEST(TransportTest, FifoPerPair) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    net.Send(a, b, 1000, [&order, i]() { order.push_back(i); });
  }
  sim.RunToCompletion();
  ASSERT_EQ(order.size(), 10u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(TransportTest, BandwidthBoundsThroughput) {
  sim::Simulator sim;
  Transport net(&sim);
  NetParams params;
  params.nics = 1;
  NodeId a = net.AddNode("a", params);
  NodeId b = net.AddNode("b", params);

  // Pump 1 MB messages for one second; delivered bytes are NIC-bound.
  uint64_t delivered_bytes = 0;
  std::function<void()> pump = [&]() {
    if (sim.Now() >= sec(1)) {
      return;
    }
    net.Send(a, b, 1 * kMiB, [&]() {
      if (sim.Now() <= sec(1)) {
        delivered_bytes += 1 * kMiB;
      }
    });
    sim.After(usec(700), pump);  // faster than the link can drain
  };
  pump();
  sim.RunUntil(sec(1) + msec(100));
  double gbps = static_cast<double>(delivered_bytes) * 8 / 1e9;
  EXPECT_LT(gbps, 10.5);  // one 10 GbE NIC
  EXPECT_GT(gbps, 8.0);
}

TEST(TransportTest, PipeliningOverlapsTransfers) {
  // qd=8 of 64 KB messages: total time far below 8x the single-message time.
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  int remaining = 8;
  Nanos finish = 0;
  for (int i = 0; i < 8; ++i) {
    net.Send(a, b, 64 * kKiB, [&]() {
      if (--remaining == 0) {
        finish = sim.Now();
      }
    });
  }
  sim.RunToCompletion();
  Nanos single = 0;
  {
    sim::Simulator sim2;
    Transport net2(&sim2);
    NodeId c = net2.AddNode("c");
    NodeId d = net2.AddNode("d");
    net2.Send(c, d, 64 * kKiB, [&]() { single = sim2.Now(); });
    sim2.RunToCompletion();
  }
  EXPECT_LT(finish, 8 * single);
}

TEST(TransportTest, LoopbackSkipsNics) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  Nanos t = -1;
  net.Send(a, a, 1 * kMiB, [&]() { t = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_LT(t, usec(10));
  EXPECT_GE(t, 0);
}

TEST(TransportTest, DownNodeDropsMessages) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  net.SetNodeDown(b, true);
  bool delivered = false;
  net.Send(a, b, 100, [&]() { delivered = true; });
  sim.RunToCompletion();
  EXPECT_FALSE(delivered);
  net.SetNodeDown(b, false);
  net.Send(a, b, 100, [&]() { delivered = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(delivered);
}

TEST(TransportTest, MessageToNodeThatGoesDownInFlightFreesItsRecord) {
  // A message whose destination dies while it is on the wire (egress and
  // propagation stages) or in the destination's NIC (ingress stage) is
  // dropped, and its pooled in-flight record and deliver closure go with it.
  NetParams params;
  const uint64_t wire = (1u << 20) + params.overhead_bytes;
  const Nanos ser = TransferTime(wire, params.nic_bw);
  for (Nanos down_at : {ser / 2, ser + params.propagation / 2, ser + params.propagation + ser / 2}) {
    sim::Simulator sim;
    Transport net(&sim);
    NodeId a = net.AddNode("a", params);
    NodeId b = net.AddNode("b", params);
    auto token = std::make_shared<int>(0);
    bool delivered = false;
    net.Send(a, b, 1u << 20, [token, &delivered]() { delivered = true; });
    EXPECT_EQ(net.messages_in_flight(), 1u);
    EXPECT_EQ(token.use_count(), 2);
    sim.RunUntil(down_at);
    net.SetNodeDown(b, true);
    sim.RunToCompletion();
    EXPECT_FALSE(delivered) << "down_at=" << down_at;
    EXPECT_EQ(net.messages_in_flight(), 0u) << "down_at=" << down_at;
    EXPECT_EQ(token.use_count(), 1) << "down_at=" << down_at;
    // The freed record is reused by the next message, which arrives.
    net.SetNodeDown(b, false);
    net.Send(a, b, 100, [&delivered]() { delivered = true; });
    sim.RunToCompletion();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.messages_in_flight(), 0u);
  }
}

TEST(TransportTest, BrokenLinkIsBidirectional) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  NodeId c = net.AddNode("c");
  net.SetLinkBroken(a, b, true);
  int delivered = 0;
  net.Send(a, b, 100, [&]() { ++delivered; });
  net.Send(b, a, 100, [&]() { ++delivered; });
  net.Send(a, c, 100, [&]() { ++delivered; });  // unrelated pair unaffected
  sim.RunToCompletion();
  EXPECT_EQ(delivered, 1);
  net.SetLinkBroken(a, b, false);
  net.Send(a, b, 100, [&]() { ++delivered; });
  sim.RunToCompletion();
  EXPECT_EQ(delivered, 2);
}

TEST(TransportTest, ByteCounters) {
  sim::Simulator sim;
  Transport net(&sim);
  NetParams params;
  NodeId a = net.AddNode("a", params);
  NodeId b = net.AddNode("b", params);
  net.Send(a, b, 1000, []() {});
  sim.RunToCompletion();
  EXPECT_EQ(net.bytes_out(a), 1000 + params.overhead_bytes);
  EXPECT_EQ(net.bytes_in(b), 1000 + params.overhead_bytes);
}

TEST(MessageTest, WireBytesComposition) {
  EXPECT_EQ(WireBytes(MessageType::kWriteRequest, 4096),
            FixedBytes(MessageType::kWriteRequest) + 4096);
  EXPECT_GT(FixedBytes(MessageType::kMasterOp), FixedBytes(MessageType::kReadReply));
  for (int t = 0; t <= static_cast<int>(MessageType::kLeaseGrant); ++t) {
    EXPECT_STRNE(MessageTypeName(static_cast<MessageType>(t)), "UNKNOWN");
    EXPECT_GT(FixedBytes(static_cast<MessageType>(t)), 0u);
  }
}

// ---- Link chaos rules (see DESIGN.md "Fault model & chaos harness") ----

TEST(TransportChaosTest, BlockedLinkIsAsymmetric) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  LinkChaosRule blocked;
  blocked.blocked = true;
  net.SetLinkChaos(a, b, blocked);

  bool forward = false;
  bool backward = false;
  net.Send(a, b, 512, [&]() { forward = true; });
  net.Send(b, a, 512, [&]() { backward = true; });
  sim.RunToCompletion();
  EXPECT_FALSE(forward);  // a -> b partitioned
  EXPECT_TRUE(backward);  // b -> a untouched: asymmetric by design
  EXPECT_EQ(net.chaos_counters().dropped, 1u);

  net.ClearLinkChaos(a, b);
  net.Send(a, b, 512, [&]() { forward = true; });
  sim.RunToCompletion();
  EXPECT_TRUE(forward);  // healed
}

TEST(TransportChaosTest, DropProbabilityIsDeterministicGivenRng) {
  for (int trial = 0; trial < 2; ++trial) {
    sim::Simulator sim;
    Rng rng(42);
    Transport net(&sim);
    net.SetChaosRng(&rng);
    NodeId a = net.AddNode("a");
    NodeId b = net.AddNode("b");
    LinkChaosRule lossy;
    lossy.drop_prob = 0.5;
    net.SetLinkChaos(a, b, lossy);

    int delivered = 0;
    for (int i = 0; i < 100; ++i) {
      net.Send(a, b, 512, [&]() { ++delivered; });
    }
    sim.RunToCompletion();
    EXPECT_GT(delivered, 20);
    EXPECT_LT(delivered, 80);
    // Same seed => exactly the same coin flips on both trials.
    static int first_trial_delivered = -1;
    if (trial == 0) {
      first_trial_delivered = delivered;
    } else {
      EXPECT_EQ(delivered, first_trial_delivered);
    }
  }
}

TEST(TransportChaosTest, DuplicationDeliversExtraCopies) {
  sim::Simulator sim;
  Rng rng(7);
  Transport net(&sim);
  net.SetChaosRng(&rng);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  LinkChaosRule dup;
  dup.dup_prob = 1.0;  // every message duplicated
  net.SetLinkChaos(a, b, dup);

  int deliveries = 0;
  net.Send(a, b, 512, [&]() { ++deliveries; });
  sim.RunToCompletion();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(net.chaos_counters().duplicated, 1u);
}

TEST(TransportChaosTest, ExtraDelayShiftsDelivery) {
  NetParams params;
  Nanos base = 0;
  {
    sim::Simulator sim;
    Transport net(&sim);
    NodeId a = net.AddNode("a", params);
    NodeId b = net.AddNode("b", params);
    net.Send(a, b, 4096, [&]() { base = sim.Now(); });
    sim.RunToCompletion();
  }
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a", params);
  NodeId b = net.AddNode("b", params);
  LinkChaosRule slow;
  slow.extra_delay = msec(3);
  net.SetLinkChaos(a, b, slow);
  Nanos delayed = 0;
  net.Send(a, b, 4096, [&]() { delayed = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(delayed, base + msec(3));
  EXPECT_EQ(net.chaos_counters().delayed, 1u);
}

// The flat per-sender rule table grows with the nodes: a rule set before a
// node joins keeps applying after, a rule on a link to the new node applies
// too, and Clear* remove exactly what they name.
TEST(TransportChaosTest, RulesSetBeforeAndAfterAddNodeBothApply) {
  sim::Simulator sim;
  Transport net(&sim);
  NodeId a = net.AddNode("a");
  NodeId b = net.AddNode("b");
  LinkChaosRule block;
  block.blocked = true;
  net.SetLinkChaos(a, b, block);  // before c exists
  NodeId c = net.AddNode("c");
  net.SetLinkChaos(c, a, block);  // from the new node
  LinkChaosRule slow;
  slow.extra_delay = msec(3);
  net.SetLinkChaos(a, c, slow);  // to the new node

  int to_b = 0;
  int to_a = 0;
  Nanos to_c = 0;
  net.Send(a, b, 512, [&]() { ++to_b; });
  net.Send(c, a, 512, [&]() { ++to_a; });
  net.Send(a, c, 512, [&]() { to_c = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_EQ(to_b, 0);
  EXPECT_EQ(to_a, 0);
  EXPECT_GE(to_c, msec(3));
  EXPECT_EQ(net.chaos_counters().dropped, 2u);
  EXPECT_EQ(net.chaos_counters().delayed, 1u);
  ASSERT_NE(net.FindLinkChaos(a, b), nullptr);
  EXPECT_EQ(net.FindLinkChaos(b, a), nullptr);  // directed
  EXPECT_EQ(net.FindLinkChaos(b, c), nullptr);

  net.ClearLinkChaos(a, b);
  EXPECT_EQ(net.FindLinkChaos(a, b), nullptr);
  EXPECT_NE(net.FindLinkChaos(c, a), nullptr);
  net.Send(a, b, 512, [&]() { ++to_b; });
  sim.RunToCompletion();
  EXPECT_EQ(to_b, 1);

  net.ClearAllLinkChaos();
  EXPECT_EQ(net.FindLinkChaos(c, a), nullptr);
  EXPECT_EQ(net.FindLinkChaos(a, c), nullptr);
  net.Send(c, a, 512, [&]() { ++to_a; });
  sim.RunToCompletion();
  EXPECT_EQ(to_a, 1);
}

}  // namespace
}  // namespace ursa::net
