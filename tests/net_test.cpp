// Network substrate tests: channel reservation, uncontended transfer math,
// NIC contention (egress and ingress serialization), topology mappings and
// per-process endpoint delivery.
#include <gtest/gtest.h>

#include "net/calibration.hpp"
#include "net/fabric.hpp"

namespace nmx::net {
namespace {

TEST(Channel, ReservationsSerialize) {
  Channel ch;
  auto a = ch.reserve(0.0, 2.0);
  EXPECT_DOUBLE_EQ(a.begin, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 2.0);
  auto b = ch.reserve(1.0, 3.0);  // wants to start while busy
  EXPECT_DOUBLE_EQ(b.begin, 2.0);
  EXPECT_DOUBLE_EQ(b.end, 5.0);
  auto c = ch.reserve(10.0, 1.0);  // idle gap
  EXPECT_DOUBLE_EQ(c.begin, 10.0);
}

TEST(Topology, BlockedMappingFillsNodesInOrder) {
  Topology t = Topology::blocked(3, 7, {ib_profile()});
  // ceil(7/3) = 3 per node: 0,1,2 | 3,4,5 | 6
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(2), 0);
  EXPECT_EQ(t.node_of(3), 1);
  EXPECT_EQ(t.node_of(6), 2);
  EXPECT_TRUE(t.same_node(0, 2));
  EXPECT_FALSE(t.same_node(2, 3));
  EXPECT_EQ(t.procs_on(0), 3);
  EXPECT_EQ(t.procs_on(2), 1);
  EXPECT_EQ(t.local_index(6), 0);
}

TEST(Topology, CyclicMappingScatters) {
  Topology t = Topology::cyclic(10, 16, {ib_profile()});
  for (int p = 0; p < 16; ++p) EXPECT_EQ(t.node_of(p), p % 10);
  // "in the 8 processes case, only one process runs on a node"
  Topology t8 = Topology::cyclic(10, 8, {ib_profile()});
  for (int a = 0; a < 8; ++a) {
    for (int b = a + 1; b < 8; ++b) EXPECT_FALSE(t8.same_node(a, b));
  }
}

struct FabricFixture : ::testing::Test {
  sim::Engine eng;
  Topology topo = Topology::blocked(3, 3, {ib_profile()});
  Fabric fabric{eng, topo};
  std::vector<std::pair<Time, int>> arrivals;  // (time, src_node)

  /// Transmit `bytes` from node `src` to node `dst`; the delivery closure
  /// records the arrival.
  Time send(int src, int dst, std::size_t bytes) {
    return fabric.transmit(WirePacket{src, dst, 0, bytes},
                           [this, src] { arrivals.emplace_back(eng.now(), src); });
  }
};

TEST_F(FabricFixture, UncontendedTransferMatchesModel) {
  const Time egress = send(0, 1, 4096);
  eng.run();
  ASSERT_EQ(arrivals.size(), 1u);
  const NicProfile& prof = fabric.profile(0);
  EXPECT_NEAR(arrivals[0].first, prof.wire_latency + prof.occupancy(4096), 1e-12);
  EXPECT_NEAR(fabric.uncontended_time(0, 4096), arrivals[0].first, 1e-12);
  EXPECT_NEAR(egress, fabric.uncontended_egress_time(0, 4096), 1e-12);
}

TEST_F(FabricFixture, EgressSerializesSameSender) {
  send(0, 1, 1 << 20);
  send(0, 1, 1 << 20);
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Time occupancy = fabric.profile(0).occupancy(1 << 20);
  EXPECT_NEAR(arrivals[1].first - arrivals[0].first, occupancy, 1e-9);
}

TEST_F(FabricFixture, IngressSerializesDifferentSenders) {
  // Two senders to one node: the receiving NIC is the bottleneck — this is
  // the many-processes-per-node contention of the NAS testbed.
  send(0, 2, 1 << 20);
  send(1, 2, 1 << 20);
  eng.run();
  ASSERT_EQ(arrivals.size(), 2u);
  const Time occupancy = fabric.profile(0).occupancy(1 << 20);
  EXPECT_NEAR(arrivals[1].first - arrivals[0].first, occupancy, occupancy * 0.05);
}

TEST_F(FabricFixture, DistinctPairsDoNotContend) {
  send(0, 1, 1 << 20);
  send(2, 1, 64);  // tiny message into the same ingress: queues
  eng.run();
  // Both arrive; order by completion time.
  ASSERT_EQ(arrivals.size(), 2u);
}

TEST_F(FabricFixture, LoopbackIsRejected) {
  EXPECT_THROW(send(1, 1, 64), AssertionError);
}

TEST(Endpoints, DeliverDispatchesByProcAndPassesTheRail) {
  // Two procs on one node: the node's NIC is shared, so it is the proc, not
  // the node, that picks the endpoint.
  sim::Engine eng;
  Topology topo = Topology::blocked(2, 4, {ib_profile(), mx_profile()});  // procs 0,1 | 2,3
  Fabric fabric(eng, topo);
  Endpoints<int> eps(topo.num_procs());
  std::vector<std::pair<int, int>> got2, got3;  // (rail, msg)
  eps.register_proc(2, [&](int rail, int&& m) { got2.emplace_back(rail, m); });
  eps.register_proc(3, [&](int rail, int&& m) { got3.emplace_back(rail, m); });

  auto send = [&](int proc, int rail, int msg) {
    fabric.transmit(WirePacket{0, topo.node_of(proc), rail, 64},
                    [&eps, proc, rail, msg]() mutable { eps.deliver(proc, rail, std::move(msg)); });
  };
  send(2, 0, 20);
  send(3, 1, 31);
  send(3, 0, 30);
  eng.run();
  EXPECT_EQ(got2, (std::vector<std::pair<int, int>>{{0, 20}}));
  // IB (rail 0) beats MX (rail 1): the later rail-0 send lands first.
  EXPECT_EQ(got3, (std::vector<std::pair<int, int>>{{0, 30}, {1, 31}}));
}

TEST(Endpoints, DoubleRegistrationAndUnregisteredDeliveryAssert) {
  Endpoints<int> eps(2);
  eps.register_proc(0, [](int, int&&) {});
  EXPECT_THROW(eps.register_proc(0, [](int, int&&) {}), AssertionError);
  EXPECT_THROW(eps.deliver(1, 0, 7), AssertionError);  // in range, nobody registered
  EXPECT_THROW(eps.deliver(2, 0, 7), AssertionError);  // no such proc
  EXPECT_NO_THROW(eps.deliver(0, 0, 7));
}

TEST(Profiles, PaperCalibration) {
  const NicProfile ib = ib_profile();
  const NicProfile mx = mx_profile();
  EXPECT_TRUE(ib.needs_registration);
  EXPECT_FALSE(mx.needs_registration);
  EXPECT_LT(ib.wire_latency, mx.wire_latency);  // IB is the low-latency rail
  EXPECT_GT(ib.bandwidth, mx.bandwidth);
  // Raw one-way small-message time ~ 1.2 us (§4.1.1).
  EXPECT_NEAR(ib.wire_latency + ib.occupancy(1), 1.2e-6, 0.05e-6);
}

}  // namespace
}  // namespace nmx::net
