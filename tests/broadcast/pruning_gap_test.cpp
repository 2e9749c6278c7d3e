// The multicast relay-pruning soundness gap (DESIGN.md §4(4)) — a frozen
// concrete instance.
//
// Paper §3.4 claims the broadcast "can be readily modified" into a
// multicast by pruning transmissions to relay-list holders. But the
// Time-Slot Conditions were established for the FULL transmitter set:
// a leaf's guaranteed collision-free provider can be a backbone node
// whose subtree contains no group member. Pruning silences exactly that
// provider and the leaf starves — while the leaf's own parent may never
// even have acquired an l-slot (its children were provably covered by
// the now-pruned neighbor).
//
// Deployment seed 1 with membership draw seed 1 exhibits the gap at
// node 130; the structure of the counterexample is asserted explicitly
// so a future "fix" that silently changes the draw fails loudly.
#include <gtest/gtest.h>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

constexpr GroupId kGroup = 1;

class PruningGapTest : public ::testing::Test {
 protected:
  PruningGapTest() {
    NetworkConfig cfg;
    cfg.nodeCount = 150;
    cfg.seed = 1;
    net_ = std::make_unique<SensorNetwork>(cfg);
    Rng rng(1);
    for (NodeId v : net_->clusterNet().netNodes())
      if (rng.chance(0.25)) net_->joinGroup(v, kGroup);
  }
  std::unique_ptr<SensorNetwork> net_;
};

TEST_F(PruningGapTest, LiteralPruningStarvesAMember) {
  const auto pruned = net_->multicast(net_->clusterNet().root(), kGroup,
                                      1, MulticastMode::kPrunedRelay);
  EXPECT_FALSE(pruned.allDelivered());
  EXPECT_EQ(pruned.intended - pruned.delivered, 1u);
  EXPECT_LT(pruned.deliveryRound[130], 0);  // the starved member
}

TEST_F(PruningGapTest, FullFloodServesTheSameMember) {
  const auto flood = net_->multicast(net_->clusterNet().root(), kGroup, 1,
                                     MulticastMode::kFullFlood);
  EXPECT_TRUE(flood.allDelivered());
  EXPECT_GE(flood.deliveryRound[130], 0);
}

TEST_F(PruningGapTest, CounterexampleStructureIsAsDocumented) {
  const auto& cn = net_->clusterNet();
  const NodeId starved = 130;
  ASSERT_TRUE(cn.contains(starved));
  ASSERT_EQ(cn.status(starved), NodeStatus::kPureMember);
  ASSERT_TRUE(cn.inGroup(starved, kGroup));

  // Exactly one interferer holds an l-slot (the guaranteed provider)...
  NodeId provider = kInvalidNode;
  for (NodeId u : cn.interferers(SlotFamily::kL, starved)) {
    if (cn.lSlot(u) != kNoSlot) {
      ASSERT_EQ(provider, kInvalidNode) << "expected a single provider";
      provider = u;
    }
  }
  ASSERT_NE(provider, kInvalidNode);
  // ...and that provider is not on the group's relay tree,
  EXPECT_FALSE(cn.relaysGroup(provider, kGroup));
  EXPECT_FALSE(cn.inGroup(provider, kGroup));
  // ...while the member's own parent relays but owns no l-slot (it never
  // needed one — the provider's slot covered its children).
  const NodeId parent = cn.parent(starved);
  EXPECT_TRUE(cn.relaysGroup(parent, kGroup));
  EXPECT_EQ(cn.lSlot(parent), kNoSlot);
}

TEST_F(PruningGapTest, GapRateStaysSmall) {
  // Across fresh draws the per-member miss rate stays low — the gap is
  // real but rare, which is presumably why the paper never noticed.
  std::size_t intended = 0, missed = 0;
  for (std::uint64_t seed : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    NetworkConfig cfg;
    cfg.nodeCount = 150;
    cfg.seed = seed;
    SensorNetwork net(cfg);
    Rng rng(seed);
    for (NodeId v : net.clusterNet().netNodes())
      if (rng.chance(0.25)) net.joinGroup(v, kGroup);
    const auto run = net.multicast(net.clusterNet().root(), kGroup, 1,
                                   MulticastMode::kPrunedRelay);
    intended += run.intended;
    missed += run.intended - run.delivered;
  }
  ASSERT_GT(intended, 0u);
  EXPECT_LT(static_cast<double>(missed) / static_cast<double>(intended),
            0.03);
}

}  // namespace
}  // namespace dsn
