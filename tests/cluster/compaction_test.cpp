// Slot compaction: windows tighten after churn and all invariants
// survive the sweep.
#include <gtest/gtest.h>

#include "cluster/validate.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

using testutil::randomNet;
using testutil::validationErrors;

TEST(CompactionTest, NoOpOnEmptyNet) {
  Graph g(1);
  ClusterNet net(g);
  EXPECT_EQ(net.compactSlots(), 0);
}

TEST(CompactionTest, FreshNetStaysValidAndExact) {
  auto f = randomNet(5001, 150);
  f.net->compactSlots();
  EXPECT_EQ(validationErrors(*f.net), "");
  // After compaction the root's knowledge is exact (the incremental
  // discipline only guarantees an upper bound).
  EXPECT_EQ(f.net->rootMaxBSlot(), f.net->trueMaxSlot(SlotFamily::kB));
  EXPECT_EQ(f.net->rootMaxLSlot(), f.net->trueMaxSlot(SlotFamily::kL));
  EXPECT_EQ(f.net->rootMaxUSlot(), f.net->trueMaxSlot(SlotFamily::kU));
  EXPECT_EQ(f.net->rootMaxUpSlot(), f.net->trueMaxSlot(SlotFamily::kUp));
}

TEST(CompactionTest, TightensWindowsAfterChurn) {
  auto f = randomNet(5002, 200);
  Rng rng(5002);
  for (int i = 0; i < 60; ++i) {
    const auto nodes = f.net->netNodes();
    if (nodes.size() <= 20) break;
    f.net->moveOut(nodes[rng.pickIndex(nodes)]);
  }
  const TimeSlot staleL = f.net->rootMaxLSlot();
  const TimeSlot staleUp = f.net->rootMaxUpSlot();
  f.net->compactSlots();
  EXPECT_EQ(validationErrors(*f.net), "");
  EXPECT_LE(f.net->rootMaxLSlot(), staleL);
  EXPECT_LE(f.net->rootMaxUpSlot(), staleUp);
  EXPECT_EQ(f.net->rootMaxLSlot(), f.net->trueMaxSlot(SlotFamily::kL));
}

TEST(CompactionTest, StructureUnchangedOnlySlots) {
  auto f = randomNet(5003, 100);
  std::vector<NodeId> parentsBefore;
  for (NodeId v : f.net->netNodes())
    parentsBefore.push_back(v == f.net->root() ? kInvalidNode
                                               : f.net->parent(v));
  f.net->compactSlots();
  std::vector<NodeId> parentsAfter;
  for (NodeId v : f.net->netNodes())
    parentsAfter.push_back(v == f.net->root() ? kInvalidNode
                                              : f.net->parent(v));
  EXPECT_EQ(parentsBefore, parentsAfter);
}

TEST(CompactionTest, CostIsMetered) {
  auto f = randomNet(5004, 120);
  const auto rounds = f.net->compactSlots();
  EXPECT_GT(rounds, 0);
  // One procedure per node-ish: O(n·D) envelope.
  const auto n = static_cast<std::int64_t>(f.net->netSize());
  EXPECT_LE(rounds, n * 200);
}

TEST(CompactionTest, BroadcastStillDeliversAfterCompaction) {
  auto f = randomNet(5005, 150);
  Rng rng(5005);
  for (int i = 0; i < 30; ++i) {
    const auto nodes = f.net->netNodes();
    f.net->moveOut(nodes[rng.pickIndex(nodes)]);
  }
  f.net->compactSlots();
  EXPECT_EQ(validationErrors(*f.net), "");
}

}  // namespace
}  // namespace dsn
