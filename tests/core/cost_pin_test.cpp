// Pins the rounds the cluster net meters for its structural operations
// (RoundCost, paper Section 5) and the slot knowledge they leave behind,
// on one seeded deployment with multicast groups, under both slot
// policies. The churn engine's adaptive policy compares these totals
// with a rebuild's cost, so a change to the move-in, move-out or
// recovery bookkeeping must leave every field, every report count, the
// height and every slot where they are. The kStrict costs were recorded
// from the build that kept an explicit subtree height in every node.
//
// DeparturePinTest covers the departures RoundCostPinTest does not reach:
// a repair with several detached subtrees under a live root, and a leave
// and a root withdrawal whose subtree holds a crashed node that no repair
// has pruned yet. Its values were recorded from the build that kept
// three copies of move-out's Step 0 (non-root leave, root leave and
// crash recovery).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

struct Costs {
  std::int64_t attach, slotUpdate, rootPath, eulerTour, groupMaintenance,
      heartbeat;
};

void expectCosts(const RoundCost& got, const Costs& want) {
  EXPECT_EQ(got.attach, want.attach);
  EXPECT_EQ(got.slotUpdate, want.slotUpdate);
  EXPECT_EQ(got.rootPath, want.rootPath);
  EXPECT_EQ(got.eulerTour, want.eulerTour);
  EXPECT_EQ(got.groupMaintenance, want.groupMaintenance);
  EXPECT_EQ(got.heartbeat, want.heartbeat);
}

/// Folds the eight bytes of `x` into FNV-1a digest `h`.
void fnvMix(std::uint64_t& h, std::uint64_t x) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (8 * byte)) & 0xFFu;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a over every net node's id, parent and four slots, then the
/// root's four window maxima: a changed slot anywhere moves it.
std::uint64_t slotDigest(const ClusterNet& net) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) { fnvMix(h, x); };
  for (NodeId v : net.netNodes()) {
    mix(v);
    mix(net.parent(v));
    mix(net.bSlot(v));
    mix(net.lSlot(v));
    mix(net.uSlot(v));
    mix(net.upSlot(v));
  }
  mix(net.rootMaxBSlot());
  mix(net.rootMaxLSlot());
  mix(net.rootMaxUSlot());
  mix(net.rootMaxUpSlot());
  return h;
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

/// What one slot policy must reproduce. A step's `...Cost` is the cost
/// its report carries, `...Total` the net's running costs after it, and
/// `slots[i]` the slot digest after step i. The tree does not depend on
/// the slot policy, so subtree sizes, orphan counts and heights are
/// shared and written into runPinnedSteps.
struct PolicyPins {
  Costs buildTotal;
  Costs groupsTotal;
  Costs removeCost, removeTotal;
  Costs rootCost, rootTotal;
  Costs crashCost, crashTotal;
  std::int64_t compactRounds;
  Costs compactTotal;
  Costs rebuilt;
  std::array<std::uint64_t, 7> slots;
};

void runPinnedSteps(SlotPolicy policy, const PolicyPins& pins) {
  NetworkConfig cfg;
  cfg.nodeCount = 150;
  cfg.seed = 0xC0575;
  cfg.cluster.slotPolicy = policy;
  SensorNetwork net(cfg);
  {
    SCOPED_TRACE("build");
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    expectCosts(net.clusterNet().costs(), pins.buildTotal);
    EXPECT_EQ(net.clusterNet().netSize(), 150u);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[0]);
  }

  {
    SCOPED_TRACE("multicast group joins");
    for (NodeId v = 0; v < cfg.nodeCount; v += 7)
      net.joinGroup(v, static_cast<GroupId>(1 + v % 3));
    expectCosts(net.clusterNet().costs(), pins.groupsTotal);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[1]);
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
    expectCosts(r.cost, pins.removeCost);
    expectCosts(net.clusterNet().costs(), pins.removeTotal);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[2]);
  }

  {
    SCOPED_TRACE("withdrawSensor of the root");
    const MoveOutReport r = net.withdrawSensor(net.clusterNet().root());
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(r.subtreeSize, 148u);
    EXPECT_EQ(r.orphaned, 0u);
    EXPECT_EQ(r.conditionRepairs, 0u);
    expectCosts(r.cost, pins.rootCost);
    expectCosts(net.clusterNet().costs(), pins.rootTotal);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[3]);
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
    expectCosts(r.cost, pins.crashCost);
    expectCosts(net.clusterNet().costs(), pins.crashTotal);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[4]);
  }

  {
    SCOPED_TRACE("compactSlots");
    const std::int64_t rounds = net.clusterNet().compactSlots();
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    EXPECT_EQ(rounds, pins.compactRounds);
    expectCosts(net.clusterNet().costs(), pins.compactTotal);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[5]);
  }

  {
    SCOPED_TRACE("rebuildStructure");
    const RoundCost rebuilt = net.rebuildStructure();
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    expectCosts(rebuilt, pins.rebuilt);
    EXPECT_EQ(net.clusterNet().netSize(), 147u);
    EXPECT_EQ(net.clusterNet().height(), 13);
    EXPECT_EQ(slotDigest(net.clusterNet()), pins.slots[6]);
  }
}

TEST(RoundCostPinTest, StructuralOperationsMeterTheRecordedRounds) {
  runPinnedSteps(
      SlotPolicy::kStrict,
      {.buildTotal = {1331, 632, 852, 0, 0, 0},
       .groupsTotal = {1331, 632, 852, 0, 110, 0},
       .removeCost = {275, 151, 125, 112, 28, 0},
       .removeTotal = {1606, 783, 977, 112, 138, 0},
       .rootCost = {1300, 645, 869, 296, 113, 0},
       .rootTotal = {2906, 1428, 1846, 408, 251, 0},
       .crashCost = {1249, 602, 930, 294, 121, 14},
       .crashTotal = {4155, 2030, 2776, 702, 372, 14},
       .compactRounds = 1033,
       .compactTotal = {4155, 2803, 3036, 702, 372, 14},
       .rebuilt = {1262, 593, 952, 0, 119, 0},
       .slots = {0xa96907945684e721ull, 0xa96907945684e721ull,
                 0x9f715b2a8dc8ad01ull, 0xcddc8b3e104be12eull,
                 0xa58b5a43fb5aa32eull, 0xc0fa14ed68c12eaeull,
                 0xbacced130c8efa50ull}});
}

TEST(RoundCostPinTest, PaperLocalSlotsMeterTheRecordedRounds) {
  runPinnedSteps(
      SlotPolicy::kPaperLocal,
      {.buildTotal = {1331, 612, 848, 0, 0, 0},
       .groupsTotal = {1331, 612, 848, 0, 110, 0},
       .removeCost = {275, 142, 125, 112, 28, 0},
       .removeTotal = {1606, 754, 973, 112, 138, 0},
       .rootCost = {1300, 625, 878, 296, 113, 0},
       .rootTotal = {2906, 1379, 1851, 408, 251, 0},
       .crashCost = {1249, 552, 916, 294, 121, 14},
       .crashTotal = {4155, 1931, 2767, 702, 372, 14},
       .compactRounds = 988,
       .compactTotal = {4155, 2672, 3014, 702, 372, 14},
       .rebuilt = {1262, 572, 944, 0, 119, 0},
       .slots = {0x0c1e9c55b1c566a3ull, 0x0c1e9c55b1c566a3ull,
                 0xf1c47e426509e241ull, 0xf246c9449e7abcaeull,
                 0xc97c36fa244f338dull, 0xbf95f7af08d1b72cull,
                 0x67226139cc513a10ull}});
}

/// FNV-1a over every net node's id, parent, status, four slots and
/// relay counts, then the root's four window maxima.
std::uint64_t structureDigest(const ClusterNet& net) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) { fnvMix(h, x); };
  for (NodeId v : net.netNodes()) {
    mix(v);
    mix(net.parent(v));
    mix(static_cast<std::uint64_t>(net.status(v)));
    for (const TimeSlot slot : net.knowledge(v).slots) mix(slot);
    const auto& relays = net.knowledge(v).relayCount;
    mix(relays.size());
    for (const auto& [g, count] : relays) {
      mix(g);
      mix(static_cast<std::uint64_t>(count));
    }
  }
  for (std::size_t f = 0; f < kSlotFamilies; ++f)
    mix(net.rootMaxSlot(static_cast<SlotFamily>(f)));
  return h;
}

/// True when `v` lies in the subtree of `top` (`top` included).
bool inSubtree(const ClusterNet& net, NodeId v, NodeId top) {
  for (NodeId a = v; a != kInvalidNode; a = net.parent(a))
    if (a == top) return true;
  return false;
}

/// The three lowest-id non-root inner nodes, skipping any that shares a
/// branch with one already picked, so that no pick lies in another's
/// subtree.
std::vector<NodeId> innerNodesInSeparateBranches(const ClusterNet& net) {
  std::vector<NodeId> picked;
  for (NodeId v : net.netNodes()) {
    if (v == net.root() || net.children(v).empty()) continue;
    bool separate = true;
    for (NodeId p : picked)
      separate = separate && !inSubtree(net, v, p) && !inSubtree(net, p, v);
    if (separate) picked.push_back(v);
    if (picked.size() == 3) break;
  }
  return picked;
}

/// A 150-node deployment with RoundCostPinTest's multicast groups.
std::unique_ptr<SensorNetwork> groupedNet(SlotPolicy policy,
                                          std::uint64_t seed) {
  NetworkConfig cfg;
  cfg.nodeCount = 150;
  cfg.seed = seed;
  cfg.cluster.slotPolicy = policy;
  auto net = std::make_unique<SensorNetwork>(cfg);
  for (NodeId v = 0; v < cfg.nodeCount; v += 7)
    net->joinGroup(v, static_cast<GroupId>(1 + v % 3));
  return net;
}

struct MoveOutPins {
  std::size_t subtreeSize, orphaned, conditionRepairs;
  Costs cost, total;
  std::uint64_t digest;
};

struct RecoveryPins {
  std::size_t staleRemoved, reattached, orphaned, conditionRepairs;
  bool rootReseeded;
  Costs cost, total;
  std::uint64_t digest;
};

void expectMoveOut(const SensorNetwork& net, const MoveOutReport& r,
                   const MoveOutPins& want) {
  EXPECT_EQ(r.subtreeSize, want.subtreeSize);
  EXPECT_EQ(r.orphaned, want.orphaned);
  EXPECT_EQ(r.conditionRepairs, want.conditionRepairs);
  expectCosts(r.cost, want.cost);
  expectCosts(net.clusterNet().costs(), want.total);
  EXPECT_EQ(structureDigest(net.clusterNet()), want.digest);
}

void expectRecovery(const SensorNetwork& net, const RecoveryReport& r,
                    const RecoveryPins& want) {
  EXPECT_EQ(r.staleRemoved, want.staleRemoved);
  EXPECT_EQ(r.reattached, want.reattached);
  EXPECT_EQ(r.orphaned, want.orphaned);
  EXPECT_EQ(r.conditionRepairs, want.conditionRepairs);
  EXPECT_EQ(r.rootReseeded, want.rootReseeded);
  expectCosts(r.cost, want.cost);
  expectCosts(net.clusterNet().costs(), want.total);
  EXPECT_EQ(structureDigest(net.clusterNet()), want.digest);
}

/// What one slot policy must reproduce in the three departure cases.
/// Each leave is followed by a repair, which must find the leave has
/// already dropped the crashed node, and by validation. The first two
/// cases run on seeds whose departure breaks a receiver's slot
/// condition, so the repair pass and the boundary it walks are pinned
/// too; the third runs on RoundCostPinTest's seed.
struct DeparturePins {
  RecoveryPins branchCrashes;
  MoveOutPins leave;
  RecoveryPins leaveRepair;
  MoveOutPins rootLeave;
  RecoveryPins rootLeaveRepair;
};

void runDepartureCases(SlotPolicy policy, const DeparturePins& pins) {
  {
    SCOPED_TRACE("repair after crashes in three separate branches");
    auto net = groupedNet(policy, 388);
    const std::vector<NodeId> victims =
        innerNodesInSeparateBranches(net->clusterNet());
    ASSERT_EQ(victims.size(), 3u);
    for (NodeId v : victims) net->crashSensor(v);
    const NodeId root = net->clusterNet().root();
    const RecoveryReport r = net->repairAfterFailures();
    EXPECT_EQ(net->clusterNet().root(), root);
    expectRecovery(*net, r, pins.branchCrashes);
    EXPECT_TRUE(net->validate().ok()) << net->validate().summary();
  }

  {
    SCOPED_TRACE("removeSensor over an unrepaired crash in its subtree");
    auto net = groupedNet(policy, 377);
    const NodeId leaver = innerNodeWithSubtree(net->clusterNet());
    ASSERT_NE(leaver, kInvalidNode);
    NodeId crashed = kInvalidNode;
    for (NodeId c : net->clusterNet().children(leaver))
      if (!net->clusterNet().children(c).empty()) crashed = c;
    ASSERT_NE(crashed, kInvalidNode);
    net->crashSensor(crashed);
    expectMoveOut(*net, net->removeSensor(leaver), pins.leave);
    EXPECT_FALSE(net->clusterNet().contains(crashed));
    expectRecovery(*net, net->repairAfterFailures(), pins.leaveRepair);
    EXPECT_TRUE(net->validate().ok()) << net->validate().summary();
  }

  {
    SCOPED_TRACE("withdrawSensor of the root over an unrepaired crash");
    auto net = groupedNet(policy, 0xC0575);
    const NodeId crashed = innerNodeWithSubtree(net->clusterNet());
    ASSERT_NE(crashed, kInvalidNode);
    net->crashSensor(crashed);
    expectMoveOut(*net, net->withdrawSensor(net->clusterNet().root()),
                  pins.rootLeave);
    EXPECT_FALSE(net->clusterNet().contains(crashed));
    expectRecovery(*net, net->repairAfterFailures(), pins.rootLeaveRepair);
    EXPECT_TRUE(net->validate().ok()) << net->validate().summary();
  }
}

TEST(DeparturePinTest, StrictSlotsMeterTheRecordedRounds) {
  runDepartureCases(
      SlotPolicy::kStrict,
      {.branchCrashes = {3, 96, 0, 1, false,
                         {909, 410, 593, 192, 141, 25},
                         {2590, 987, 1463, 192, 261, 25},
                         0xfdfc3cfcfc6ba7e5ull},
       .leave = {55, 1, 1,
                 {554, 264, 293, 220, 39, 0},
                 {2336, 845, 1202, 220, 147, 0},
                 0x446a31a04060093eull},
       .leaveRepair = {0, 0, 0, 0, false,
                       {0, 0, 0, 0, 0, 24},
                       {2336, 845, 1202, 220, 147, 24},
                       0x446a31a04060093eull},
       .rootLeave = {149, 1, 0,
                     {1300, 649, 866, 298, 113, 0},
                     {2631, 1281, 1718, 298, 223, 0},
                     0x132210448c183889ull},
       .rootLeaveRepair = {0, 0, 0, 0, false,
                           {0, 0, 0, 0, 0, 14},
                           {2631, 1281, 1718, 298, 223, 14},
                           0x132210448c183889ull}});
}

TEST(DeparturePinTest, PaperLocalSlotsMeterTheRecordedRounds) {
  runDepartureCases(
      SlotPolicy::kPaperLocal,
      {.branchCrashes = {3, 96, 0, 1, false,
                         {909, 383, 593, 192, 141, 25},
                         {2590, 934, 1458, 192, 261, 25},
                         0x3af34d36f2069e05ull},
       .leave = {55, 1, 1,
                 {554, 237, 293, 220, 39, 0},
                 {2336, 772, 1189, 220, 147, 0},
                 0xe9c3915e0fb07a7aull},
       .leaveRepair = {0, 0, 0, 0, false,
                       {0, 0, 0, 0, 0, 24},
                       {2336, 772, 1189, 220, 147, 24},
                       0xe9c3915e0fb07a7aull},
       .rootLeave = {149, 1, 0,
                     {1300, 627, 876, 298, 113, 0},
                     {2631, 1239, 1724, 298, 223, 0},
                     0xef880b7841ef8309ull},
       .rootLeaveRepair = {0, 0, 0, 0, false,
                           {0, 0, 0, 0, 0, 14},
                           {2631, 1239, 1724, 298, 223, 14},
                           0xef880b7841ef8309ull}});
}

}  // namespace
}  // namespace dsn
