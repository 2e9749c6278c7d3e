// Reliable broadcast (NACK repair rounds over CFF/iCFF, DESIGN.md §10).
#include "broadcast/reliable.hpp"

#include <gtest/gtest.h>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

NetworkConfig config(std::uint64_t seed, std::size_t n = 100) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

TEST(ReliableBroadcastTest, CleanChannelNeedsNoRepair) {
  SensorNetwork net(config(41));
  const NodeId source = net.clusterNet().root();
  const auto run =
      net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 7);
  EXPECT_TRUE(run.allDelivered());
  EXPECT_EQ(run.repairRoundsUsed, 0);
  EXPECT_EQ(run.nacksSent, 0u);
  EXPECT_EQ(run.retransmissions, 0u);
  EXPECT_EQ(run.totalRounds, run.wave.sim.rounds);
  EXPECT_DOUBLE_EQ(run.coverage(), 1.0);
}

TEST(ReliableBroadcastTest, RejectsDfoAndBadOptions) {
  SensorNetwork net(config(42, 30));
  const NodeId source = net.clusterNet().root();
  EXPECT_THROW(
      net.reliableBroadcast(BroadcastScheme::kDfo, source, 1),
      PreconditionError);
  ReliableOptions bad;
  bad.maxRepairRounds = -1;
  EXPECT_THROW(
      net.reliableBroadcast(BroadcastScheme::kImprovedCff, source, 1, bad),
      PreconditionError);
}

TEST(ReliableBroadcastTest, RepairBeatsPlainWaveUnderDrops) {
  SensorNetwork net(config(43, 150));
  const NodeId source = net.clusterNet().root();
  ReliableOptions ro;
  ro.base.dropProbability = 0.2;
  ro.base.failureSeed = 0x10ADED;
  ro.maxRepairRounds = 30;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  EXPECT_GE(run.coverage(), run.wave.coverage());
  EXPECT_TRUE(run.allDelivered())
      << "residual uncovered: " << run.residualUncovered;
  if (run.repairRoundsUsed > 0) {
    EXPECT_GT(run.nacksSent, 0u);
    EXPECT_GT(run.retransmissions, 0u);
  }
}

TEST(ReliableBroadcastTest, ZeroBudgetEqualsPlainWave) {
  SensorNetwork net(config(44, 120));
  const NodeId source = net.clusterNet().root();
  ProtocolOptions plainOpts;
  plainOpts.dropProbability = 0.2;
  plainOpts.failureSeed = 0xCAFE;
  const auto plain = net.broadcast(BroadcastScheme::kImprovedCff, source,
                                   7, plainOpts);
  ReliableOptions ro;
  ro.base = plainOpts;
  ro.maxRepairRounds = 0;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  EXPECT_EQ(run.repairRoundsUsed, 0);
  EXPECT_EQ(run.delivered, plain.delivered);
  EXPECT_EQ(run.totalRounds, plain.sim.rounds);
}

TEST(ReliableBroadcastTest, DeliveryRoundsAreMonotoneAcrossRepairs) {
  SensorNetwork net(config(45, 120));
  const NodeId source = net.clusterNet().root();
  ReliableOptions ro;
  ro.base.dropProbability = 0.25;
  ro.base.failureSeed = 0x5EED;
  ro.maxRepairRounds = 20;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 7, ro);
  // Nodes repaired in round k got the payload strictly after the wave
  // finished; everyone delivered within the combined timeline.
  for (NodeId v : net.clusterNet().netNodes()) {
    const Round r = run.deliveryRound[v];
    if (r < 0) continue;
    EXPECT_LT(r, run.totalRounds);
    if (run.wave.deliveryRound[v] < 0) {
      EXPECT_GE(r, run.wave.sim.rounds);
    }
  }
}

TEST(ReliableBroadcastTest, DeterministicGivenSeed) {
  const auto once = [] {
    SensorNetwork net(config(46, 120));
    ReliableOptions ro;
    ro.base.dropProbability = 0.3;
    ro.base.failureSeed = 0xABBA;
    ro.maxRepairRounds = 10;
    return net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                 net.clusterNet().root(), 7, ro);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.totalRounds, b.totalRounds);
  EXPECT_EQ(a.nacksSent, b.nacksSent);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.deliveryRound, b.deliveryRound);
}

TEST(ReliableBroadcastTest, WorksOnPlainCffToo) {
  SensorNetwork net(config(47, 100));
  ReliableOptions ro;
  ro.base.dropProbability = 0.2;
  ro.base.failureSeed = 0xF1F1;
  ro.maxRepairRounds = 30;
  const auto run = net.reliableBroadcast(
      BroadcastScheme::kCff, net.clusterNet().root(), 7, ro);
  EXPECT_TRUE(run.allDelivered())
      << "residual uncovered: " << run.residualUncovered;
}

}  // namespace
}  // namespace dsn
