// node-move-out semantics: detachment, re-insertion, repairs, orphans,
// and invariant preservation under random churn.
#include <gtest/gtest.h>

#include <ostream>

#include "cluster/backbone.hpp"
#include "cluster/validate.hpp"
#include "graph/algorithms.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

using testutil::buildNet;
using testutil::randomNet;
using testutil::validationErrors;

TEST(MoveOutTest, LeafMemberLeavesCleanly) {
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  const auto report = net.moveOut(2);
  EXPECT_EQ(report.subtreeSize, 0u);
  EXPECT_EQ(report.orphaned, 0u);
  EXPECT_FALSE(net.contains(2));
  EXPECT_FALSE(g.isAlive(2));
  EXPECT_EQ(net.netSize(), 2u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(MoveOutTest, InternalNodeSubtreeIsReinserted) {
  // Path 0-1-2-3-4 plus a shortcut 1-3 edge... build a line then remove
  // the middle: descendants must re-attach through the remaining graph.
  Graph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.addEdge(v, v + 1);
  g.addEdge(1, 3);  // keeps G connected when 2 leaves
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3, 4});
  const auto report = net.moveOut(2);
  EXPECT_EQ(report.subtreeSize, 2u);  // 3 and 4 hung below 2
  EXPECT_EQ(report.orphaned, 0u);
  EXPECT_EQ(net.netSize(), 4u);
  EXPECT_TRUE(net.contains(3));
  EXPECT_TRUE(net.contains(4));
  EXPECT_FALSE(g.isAlive(2));
  EXPECT_EQ(validationErrors(net), "");
}

TEST(MoveOutTest, DisconnectionOrphansUnreachableSubtree) {
  // Pure path: removing the middle node splits G; the far side cannot
  // re-attach and is orphaned (left in the graph, out of the net).
  Graph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.addEdge(v, v + 1);
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3, 4});
  const auto report = net.moveOut(2);
  EXPECT_EQ(report.subtreeSize, 2u);
  EXPECT_EQ(report.orphaned, 2u);
  EXPECT_FALSE(net.contains(3));
  EXPECT_FALSE(net.contains(4));
  EXPECT_TRUE(g.isAlive(3));  // still deployed, just unreachable
  EXPECT_EQ(net.netSize(), 2u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(MoveOutTest, RootDepartureReseeds) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3});
  ASSERT_EQ(net.root(), 0u);
  const auto report = net.moveOut(0);
  EXPECT_EQ(report.subtreeSize, 3u);
  EXPECT_EQ(report.orphaned, 0u);
  EXPECT_EQ(net.netSize(), 3u);
  EXPECT_NE(net.root(), kInvalidNode);
  EXPECT_NE(net.root(), 0u);
  EXPECT_FALSE(g.isAlive(0));
  EXPECT_EQ(net.status(net.root()), NodeStatus::kClusterHead);
  EXPECT_EQ(net.depth(net.root()), 0);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(MoveOutTest, SingleNodeNetworkEmpties) {
  Graph g(1);
  ClusterNet net(g);
  net.moveIn(0);
  const auto report = net.moveOut(0);
  EXPECT_EQ(report.subtreeSize, 0u);
  EXPECT_EQ(net.netSize(), 0u);
  EXPECT_EQ(net.root(), kInvalidNode);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(MoveOutTest, MoveOutOfOutsiderRejected) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.moveIn(0);
  EXPECT_THROW(net.moveOut(1), PreconditionError);
}

struct ChurnParam {
  std::uint64_t seed;
  std::size_t n;
  int removals;
  SlotPolicy policy;
};

void PrintTo(const ChurnParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_n" << p.n << "_removals" << p.removals << '_'
      << (p.policy == SlotPolicy::kStrict ? "strict" : "paperLocal");
}

class MoveOutChurn : public ::testing::TestWithParam<ChurnParam> {};

TEST_P(MoveOutChurn, InvariantsSurviveRandomRemovals) {
  const auto p = GetParam();
  ClusterNetConfig cfg;
  cfg.slotPolicy = p.policy;
  auto f = randomNet(p.seed, p.n, 10, 50.0, cfg);
  Rng rng(p.seed ^ 0xDEAD);
  for (int step = 0; step < p.removals; ++step) {
    const auto nodes = f.net->netNodes();
    if (nodes.size() <= 1) break;
    const NodeId victim = nodes[rng.pickIndex(nodes)];
    f.net->moveOut(victim);
    const auto report = ClusterNetValidator::validate(*f.net);
    ASSERT_TRUE(report.ok())
        << "after removing node " << victim << " (step " << step << "):\n"
        << report.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Churn, MoveOutChurn,
    ::testing::Values(ChurnParam{11, 80, 30, SlotPolicy::kStrict},
                      ChurnParam{12, 120, 40, SlotPolicy::kStrict},
                      ChurnParam{13, 60, 59, SlotPolicy::kStrict},
                      ChurnParam{14, 100, 35, SlotPolicy::kPaperLocal},
                      ChurnParam{15, 150, 25, SlotPolicy::kStrict}));

TEST(MoveOutTest, ChurnWithRejoins) {
  // Nodes leave and fresh nodes join at the same positions — the net must
  // stay valid through interleaved move-in/move-out. Fresh ids are used
  // for joins (graph ids are never recycled).
  auto f = randomNet(21, 90);
  Rng rng(99);
  UnitDiskIndex idx(50.0);
  for (NodeId v = 0; v < f.points.size(); ++v) idx.insert(v, f.points[v]);

  for (int step = 0; step < 25; ++step) {
    // Remove a random node.
    const auto nodes = f.net->netNodes();
    const NodeId victim = nodes[rng.pickIndex(nodes)];
    const Point2D pos = idx.position(victim);
    f.net->moveOut(victim);
    idx.remove(victim);

    // A new sensor is deployed near the old position.
    const NodeId fresh = f.graph->addNode();
    const Point2D p2{pos.x + rng.uniformReal(-5, 5),
                     pos.y + rng.uniformReal(-5, 5)};
    for (NodeId nb : idx.queryNeighbors(p2)) {
      if (f.graph->isAlive(nb)) f.graph->addEdge(fresh, nb);
    }
    idx.insert(fresh, p2);
    if (!f.graph->neighbors(fresh).empty()) {
      // Only join when connected to the existing deployment.
      bool hasNetNeighbor = false;
      for (NodeId nb : f.graph->neighbors(fresh))
        hasNetNeighbor |= f.net->contains(nb);
      if (hasNetNeighbor) f.net->moveIn(fresh);
    }
    const auto report = ClusterNetValidator::validate(*f.net);
    ASSERT_TRUE(report.ok()) << "step " << step << ":\n"
                             << report.summary();
  }
}

TEST(MoveOutTest, CostGrowsWithSubtreeSize) {
  // Theorem 3: O(h + |T| D^2). Removing the root's child with the largest
  // subtree must cost at least as many rounds as removing a leaf.
  auto f = randomNet(33, 150);
  // Find a deep internal node and a leaf.
  NodeId bigInternal = kInvalidNode;
  std::size_t bigSize = 0;
  NodeId leaf = kInvalidNode;
  for (NodeId v : f.net->netNodes()) {
    if (v == f.net->root()) continue;
    if (f.net->children(v).empty()) {
      leaf = v;
    } else {
      // estimate subtree size via height as proxy; collect true size
      std::size_t size = 0;
      std::vector<NodeId> stack{v};
      while (!stack.empty()) {
        const NodeId x = stack.back();
        stack.pop_back();
        ++size;
        for (NodeId c : f.net->children(x)) stack.push_back(c);
      }
      if (size > bigSize) {
        bigSize = size;
        bigInternal = v;
      }
    }
  }
  ASSERT_NE(leaf, kInvalidNode);
  ASSERT_NE(bigInternal, kInvalidNode);
  ASSERT_GT(bigSize, 3u);

  const auto leafReport = f.net->moveOut(leaf);
  const auto bigReport = f.net->moveOut(bigInternal);
  EXPECT_GT(bigReport.cost.total(), leafReport.cost.total());
  EXPECT_EQ(validationErrors(*f.net), "");
}

}  // namespace
}  // namespace dsn
