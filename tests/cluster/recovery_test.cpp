// Crash recovery, ClusterNet::recover (DESIGN.md §10): crash-fault
// detection, pruning, re-attachment and slot repair — plus the end-to-end
// acceptance property: crash a chunk of the backbone, repair, and a
// reliable iCFF wave reaches every alive node of the surviving structure,
// with results bit-identical at every worker count.
#include <gtest/gtest.h>

#include <vector>

#include "core/sensor_network.hpp"
#include "exec/parallel_sweep.hpp"

namespace dsn {
namespace {

NetworkConfig smallConfig(std::uint64_t seed, std::size_t n = 80) {
  NetworkConfig cfg;
  cfg.nodeCount = n;
  cfg.seed = seed;
  return cfg;
}

TEST(RecoveryTest, CleanStructureNeedsNoRepair) {
  SensorNetwork net(smallConfig(9001));
  EXPECT_FALSE(net.hasStaleStructure());
  const RecoveryReport rep = net.repairAfterFailures();
  EXPECT_FALSE(rep.anyDamage());
  EXPECT_EQ(rep.staleRemoved, 0u);
  EXPECT_EQ(rep.reattached, 0u);
  // Detection is not free: the heartbeat sweep is charged even when
  // everyone turns out to be alive.
  EXPECT_GT(rep.cost.heartbeat, 0);
  EXPECT_TRUE(net.validate().ok());
}

TEST(RecoveryTest, CrashLeavesStructureStaleUntilRepaired) {
  SensorNetwork net(smallConfig(9002));
  std::vector<NodeId> backbone = net.clusterNet().backboneNodes();
  std::erase(backbone, net.clusterNet().root());
  ASSERT_FALSE(backbone.empty());
  const NodeId victim = backbone.front();

  net.crashSensor(victim);
  EXPECT_TRUE(net.hasStaleStructure());
  EXPECT_FALSE(net.validate().ok());

  const RecoveryReport rep = net.repairAfterFailures();
  EXPECT_TRUE(rep.anyDamage());
  EXPECT_GE(rep.staleRemoved, 1u);
  EXPECT_FALSE(net.hasStaleStructure());
  EXPECT_TRUE(net.validate().ok());
  EXPECT_FALSE(net.clusterNet().contains(victim));
}

TEST(RecoveryTest, RepairIsIdempotent) {
  SensorNetwork net(smallConfig(9003));
  std::vector<NodeId> backbone = net.clusterNet().backboneNodes();
  std::erase(backbone, net.clusterNet().root());
  net.crashSensor(backbone[backbone.size() / 2]);
  net.repairAfterFailures();
  const RecoveryReport again = net.repairAfterFailures();
  EXPECT_FALSE(again.anyDamage());
  EXPECT_EQ(again.reattached, 0u);
  EXPECT_TRUE(net.validate().ok());
}

// Regression: a join that lands while the structure is stale (after a
// crash, before the batched repair — the exact shape of a churn tick)
// may promote a pure member whose own parent is the dead node. The
// promoted node's Procedure-1 repair then has no live parent to
// recalculate and must defer to the recovery pass instead of aborting.
TEST(RecoveryTest, JoinDuringStaleStructureToleratesDeadGrandparent) {
  NetworkConfig cfg;
  cfg.nodeCount = 0;
  SensorNetwork net(cfg);
  // A path 0 - 1 - 2 - 3 (spacing 40 < range 50): 0 root head, 1 member
  // promoted to gateway when 2 joined, 2 head, 3 pure member under 2.
  for (double x : {0.0, 40.0, 80.0, 120.0}) net.addSensor({x, 0.0});
  ASSERT_EQ(net.clusterNet().knowledge(3).status, NodeStatus::kPureMember);
  ASSERT_EQ(net.clusterNet().parent(3), NodeId{2});

  net.crashSensor(2);
  ASSERT_TRUE(net.hasStaleStructure());

  // The joiner hears only member 3 (in range of 3, out of range of the
  // rest): Definition-1 rule (c) promotes 3 to gateway, and 3's repair
  // runs against its dead parent. Before the stale-edge guard this threw
  // out of repairReceiver.
  bool joined = false;
  const NodeId j = net.addSensor({120.0, 45.0}, &joined);
  EXPECT_TRUE(joined);
  EXPECT_TRUE(net.clusterNet().contains(j));
  EXPECT_EQ(net.clusterNet().knowledge(3).status, NodeStatus::kGateway);

  // The recovery pass then owns the deferred repair; here it finds 3 and
  // j cut off from the root's component and orphans them cleanly.
  net.repairAfterFailures();
  EXPECT_FALSE(net.hasStaleStructure());
  EXPECT_TRUE(net.validate().ok());
  for (NodeId v : net.clusterNet().netNodes())
    EXPECT_TRUE(net.graph().isAlive(v));
}

TEST(RecoveryTest, RootCrashReseeds) {
  SensorNetwork net(smallConfig(9004));
  const NodeId oldRoot = net.clusterNet().root();
  net.crashSensor(oldRoot);
  const RecoveryReport rep = net.repairAfterFailures();
  EXPECT_TRUE(rep.rootReseeded);
  EXPECT_NE(net.clusterNet().root(), oldRoot);
  EXPECT_TRUE(net.validate().ok());
}

TEST(RecoveryTest, AutoRepairRestoresInvariantsImmediately) {
  NetworkConfig cfg = smallConfig(9005);
  cfg.autoRepair = true;
  SensorNetwork net(cfg);
  std::vector<NodeId> backbone = net.clusterNet().backboneNodes();
  std::erase(backbone, net.clusterNet().root());
  net.crashSensor(backbone.front());
  EXPECT_FALSE(net.hasStaleStructure());
  EXPECT_TRUE(net.validate().ok());
}

// The PR's acceptance property: crash 20% of the backbone, repair, and a
// reliable iCFF wave covers 100% of the alive nodes that remain in the
// (re-attached) structure — first on a clean channel, then under drops.
TEST(RecoveryTest, TwentyPercentBackboneCrashThenFullReliableCoverage) {
  SensorNetwork net(smallConfig(9006, 150));
  std::vector<NodeId> backbone = net.clusterNet().backboneNodes();
  std::erase(backbone, net.clusterNet().root());
  const std::size_t kills = backbone.size() / 5;
  ASSERT_GE(kills, 1u);
  for (std::size_t i = 0; i < kills; ++i)
    net.crashSensor(backbone[i * backbone.size() / kills]);

  EXPECT_TRUE(net.hasStaleStructure());
  const RecoveryReport rep = net.repairAfterFailures();
  EXPECT_EQ(rep.staleRemoved, kills);
  ASSERT_TRUE(net.validate().ok());

  // Every remaining net node is alive.
  for (NodeId v : net.clusterNet().netNodes())
    EXPECT_TRUE(net.graph().isAlive(v));

  const NodeId source = net.clusterNet().root();

  // Clean channel: the plain wave already reaches everyone.
  const auto clean = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                          source, 0xDA7A);
  EXPECT_TRUE(clean.allDelivered());
  EXPECT_EQ(clean.repairRoundsUsed, 0);

  // Lossy channel: the NACK repair rounds close the gap to 100%.
  ReliableOptions lossy;
  lossy.base.dropProbability = 0.15;
  lossy.base.failureSeed = 0xBEEF;
  lossy.maxRepairRounds = 40;
  const auto run = net.reliableBroadcast(BroadcastScheme::kImprovedCff,
                                         source, 0xDA7A, lossy);
  EXPECT_EQ(run.intended, net.clusterNet().netSize());
  EXPECT_TRUE(run.allDelivered())
      << "residual uncovered: " << run.residualUncovered << " of "
      << run.intended;
  EXPECT_DOUBLE_EQ(run.coverage(), 1.0);
  EXPECT_GE(run.wave.coverage(), 0.0);
  EXPECT_GT(run.totalRounds, run.wave.sim.rounds);
}

// The whole crash → repair → reliable-broadcast pipeline must be
// bit-identical regardless of the worker count it is sharded across.
TEST(RecoveryTest, PipelineDeterministicAcrossJobs) {
  struct Signature {
    std::size_t pruned = 0;
    std::size_t netSize = 0;
    std::size_t delivered = 0;
    Round totalRounds = 0;
    std::size_t nacks = 0;
    bool operator==(const Signature&) const = default;
  };
  const std::size_t trials = 6;

  const auto runAll = [&](int jobs) {
    std::vector<Signature> out(trials);
    exec::forEachIndex(trials, jobs, [&](std::size_t t) {
      SensorNetwork net(smallConfig(0xC0DE + t, 120));
      std::vector<NodeId> backbone = net.clusterNet().backboneNodes();
      std::erase(backbone, net.clusterNet().root());
      for (std::size_t i = 0; i < backbone.size(); i += 6)
        net.crashSensor(backbone[i]);
      const RecoveryReport rep = net.repairAfterFailures();

      ReliableOptions ro;
      ro.base.dropProbability = 0.1;
      ro.base.failureSeed = 0xF00D + t;
      ro.maxRepairRounds = 12;
      const auto run = net.reliableBroadcast(
          BroadcastScheme::kImprovedCff, net.clusterNet().root(), 1, ro);
      out[t] = {rep.staleRemoved, net.clusterNet().netSize(),
                run.delivered, run.totalRounds, run.nacksSent};
    });
    return out;
  };

  const auto serial = runAll(1);
  const auto parallel = runAll(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < trials; ++t)
    EXPECT_TRUE(serial[t] == parallel[t]) << "trial " << t << " diverged";
}

}  // namespace
}  // namespace dsn
