// Negative tests: the validator must actually DETECT broken structures.
// The graph is mutable from outside the ClusterNet, so structural
// properties can be invalidated after construction — exactly what a
// physical topology change without a reconfiguration pass would do.
#include <gtest/gtest.h>

#include "cluster/validate.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

TEST(ValidatorNegativeTest, AdjacentHeadsAreFlagged) {
  // Build 0-1-2 (head, gw, head), then physically move the heads into
  // range of each other (add edge 0-2 post-hoc).
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  ASSERT_TRUE(ClusterNetValidator::validate(net).ok());

  g.addEdge(0, 2);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("Property 1(2)"), std::string::npos);
  EXPECT_TRUE(report.has("head-adjacency"));
  EXPECT_EQ(report.countOf("head-adjacency"), 1u);
  EXPECT_EQ(report.nodesOf("head-adjacency"), std::vector<NodeId>{0});
}

TEST(ValidatorNegativeTest, RemovedTreeEdgeIsFlagged) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.buildAll({0, 1});
  g.removeEdge(0, 1);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not a graph edge"), std::string::npos);
  EXPECT_TRUE(report.has("tree"));
}

TEST(ValidatorNegativeTest, UndominatedNodeIsFlagged) {
  // Member 2 hangs off head 0; removing that radio edge leaves 2
  // undominated (and its tree edge gone).
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  g.removeEdge(0, 2);
  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("not dominated"), std::string::npos);
  EXPECT_TRUE(report.has("domination"));
  const auto nodes = report.nodesOf("domination");
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes.front(), 2u);
}

TEST(ValidatorNegativeTest, SlotConditionBreakIsFlagged) {
  // Two heads share a member's neighborhood. After construction, fuse
  // the interference landscape by adding a new same-slot transmitter
  // next to the member: physically moving a backbone node into range
  // of a member can jam its only unique provider.
  auto f = testutil::randomNet(2024, 120);
  Graph& g = *f.graph;
  ClusterNet& net = *f.net;
  ASSERT_TRUE(ClusterNetValidator::validate(net).ok());

  // Find a member v with exactly one l-interferer (its head) and some
  // backbone node x elsewhere with the same l-slot; connect x to v.
  bool mutated = false;
  for (NodeId v : net.pureMembers()) {
    const auto inter = net.interferers(SlotFamily::kL, v);
    if (inter.size() != 1) continue;
    const TimeSlot slot = net.lSlot(inter.front());
    for (NodeId x : net.backboneNodes()) {
      if (x == inter.front() || g.hasEdge(x, v)) continue;
      if (net.lSlot(x) == slot && net.depth(x) != net.depth(v)) {
        g.addEdge(x, v);
        mutated = true;
        break;
      }
    }
    if (mutated) break;
  }
  if (!mutated) GTEST_SKIP() << "topology draw offered no jamming pair";

  const auto report = ClusterNetValidator::validate(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("Condition"), std::string::npos);
  EXPECT_TRUE(report.has("slot-condition"));
}

TEST(ValidatorNegativeTest, EmptyNetWithoutRootIsOk) {
  Graph g(3);
  ClusterNet net(g);
  EXPECT_TRUE(ClusterNetValidator::validate(net).ok());
}

}  // namespace
}  // namespace dsn
