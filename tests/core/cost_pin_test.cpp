// Pins the rounds the cluster net meters for its structural operations
// (RoundCost, paper Section 5) on one seeded deployment with multicast
// groups. The churn engine's adaptive policy compares these totals with
// a rebuild's cost, so a change to the move-in, move-out or recovery
// bookkeeping must leave every field, every report count and the height
// where they are. The expected values were recorded from the build that
// kept an explicit subtree height in every node.
#include <gtest/gtest.h>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

struct Costs {
  std::int64_t attach, slotUpdate, rootPath, eulerTour, repair,
      groupMaintenance, heartbeat;
};

void expectCosts(const RoundCost& got, const Costs& want) {
  EXPECT_EQ(got.attach, want.attach);
  EXPECT_EQ(got.slotUpdate, want.slotUpdate);
  EXPECT_EQ(got.rootPath, want.rootPath);
  EXPECT_EQ(got.eulerTour, want.eulerTour);
  EXPECT_EQ(got.repair, want.repair);
  EXPECT_EQ(got.groupMaintenance, want.groupMaintenance);
  EXPECT_EQ(got.heartbeat, want.heartbeat);
}

/// Lowest-id non-root net node with a grandchild, so its departure
/// re-homes a subtree at least two levels deep.
NodeId innerNodeWithSubtree(const ClusterNet& net) {
  for (NodeId v : net.netNodes()) {
    if (v == net.root()) continue;
    for (NodeId c : net.children(v))
      if (!net.children(c).empty()) return v;
  }
  return kInvalidNode;
}

TEST(RoundCostPinTest, StructuralOperationsMeterTheRecordedRounds) {
  NetworkConfig cfg;
  cfg.nodeCount = 150;
  cfg.seed = 0xC0575;
  SensorNetwork net(cfg);
  {
    SCOPED_TRACE("build");
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    expectCosts(net.clusterNet().costs(), {1331, 632, 852, 0, 0, 0, 0});
    EXPECT_EQ(net.clusterNet().netSize(), 150u);
    EXPECT_EQ(net.clusterNet().height(), 13);
  }

  {
    SCOPED_TRACE("multicast group joins");
    for (NodeId v = 0; v < cfg.nodeCount; v += 7)
      net.joinGroup(v, static_cast<GroupId>(1 + v % 3));
    expectCosts(net.clusterNet().costs(), {1331, 632, 852, 0, 0, 110, 0});
  }

  {
    SCOPED_TRACE("removeSensor of an inner node");
    const NodeId victim = innerNodeWithSubtree(net.clusterNet());
    ASSERT_NE(victim, kInvalidNode);
    const MoveOutReport r = net.removeSensor(victim);
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(r.subtreeSize, 28u);
    EXPECT_EQ(r.orphaned, 0u);
    EXPECT_EQ(r.conditionRepairs, 0u);
    expectCosts(r.cost, {275, 151, 125, 112, 0, 28, 0});
    expectCosts(net.clusterNet().costs(), {1606, 783, 977, 112, 0, 138, 0});
    EXPECT_EQ(net.clusterNet().height(), 13);
  }

  {
    SCOPED_TRACE("withdrawSensor of the root");
    const MoveOutReport r = net.withdrawSensor(net.clusterNet().root());
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(r.subtreeSize, 148u);
    EXPECT_EQ(r.orphaned, 0u);
    EXPECT_EQ(r.conditionRepairs, 0u);
    expectCosts(r.cost, {1300, 645, 869, 296, 0, 113, 0});
    expectCosts(net.clusterNet().costs(), {2906, 1428, 1846, 408, 0, 251, 0});
    EXPECT_EQ(net.clusterNet().height(), 13);
  }

  {
    SCOPED_TRACE("crash of the root and an inner node, then repair");
    const NodeId root = net.clusterNet().root();
    const NodeId inner = innerNodeWithSubtree(net.clusterNet());
    ASSERT_NE(inner, kInvalidNode);
    net.crashSensor(root);
    net.crashSensor(inner);
    const RecoveryReport r = net.repairAfterFailures();
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(r.staleRemoved, 2u);
    EXPECT_EQ(r.reattached, 146u);
    EXPECT_EQ(r.orphaned, 0u);
    EXPECT_EQ(r.conditionRepairs, 0u);
    EXPECT_TRUE(r.rootReseeded);
    expectCosts(r.cost, {1249, 602, 930, 294, 0, 121, 14});
    expectCosts(net.clusterNet().costs(), {4155, 2030, 2776, 702, 0, 372, 14});
    EXPECT_EQ(net.clusterNet().height(), 13);
  }

  {
    SCOPED_TRACE("compactSlots");
    const std::int64_t rounds = net.clusterNet().compactSlots();
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(rounds, 1033);
    expectCosts(net.clusterNet().costs(), {4155, 2803, 3036, 702, 0, 372, 14});
    EXPECT_EQ(net.clusterNet().height(), 13);
  }

  {
    SCOPED_TRACE("rebuildStructure");
    const RoundCost rebuilt = net.rebuildStructure();
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    expectCosts(rebuilt, {1262, 593, 952, 0, 0, 119, 0});
    EXPECT_EQ(net.clusterNet().netSize(), 147u);
    EXPECT_EQ(net.clusterNet().height(), 13);
  }
}

}  // namespace
}  // namespace dsn
