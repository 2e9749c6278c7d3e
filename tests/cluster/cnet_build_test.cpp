// Definition-1 construction semantics on deterministic topologies.
#include <gtest/gtest.h>

#include "cluster/cnet.hpp"
#include "cluster/validate.hpp"
#include "graph/deploy.hpp"
#include "tests/cluster/cluster_test_util.hpp"

namespace dsn {
namespace {

using testutil::buildNet;
using testutil::validationErrors;

TEST(CNetBuildTest, FirstNodeBecomesRootHead) {
  Graph g(1);
  ClusterNet net(g);
  EXPECT_EQ(net.moveIn(0), kInvalidNode);
  EXPECT_EQ(net.root(), 0u);
  EXPECT_EQ(net.status(0), NodeStatus::kClusterHead);
  EXPECT_EQ(net.depth(0), 0);
  EXPECT_EQ(net.height(), 0);
  EXPECT_EQ(net.netSize(), 1u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, CaseA_JoinUnderHead) {
  // new is adjacent to the root head -> pure member (Fig. 2a).
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.moveIn(0);
  EXPECT_EQ(net.moveIn(1), 0u);
  EXPECT_EQ(net.status(1), NodeStatus::kPureMember);
  EXPECT_EQ(net.parent(1), 0u);
  EXPECT_EQ(net.depth(1), 1);
  EXPECT_EQ(net.height(), 1);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, CaseC_PromotionCreatesGatewayAndNewHead) {
  // Path 0-1-2: node 2 sees only pure-member 1, which gets promoted
  // (Fig. 2c).
  Graph g(3);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  ClusterNet net(g);
  net.buildAll({0, 1, 2});
  EXPECT_EQ(net.status(0), NodeStatus::kClusterHead);
  EXPECT_EQ(net.status(1), NodeStatus::kGateway);
  EXPECT_EQ(net.status(2), NodeStatus::kClusterHead);
  EXPECT_EQ(net.parent(2), 1u);
  EXPECT_EQ(net.clusterCount(), 2u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, CaseB_JoinUnderGateway) {
  // Path 0-1-2 plus node 3 adjacent only to gateway 1 -> 3 becomes a head
  // under the gateway (Fig. 2b).
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(1, 3);
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3});
  EXPECT_EQ(net.status(3), NodeStatus::kClusterHead);
  EXPECT_EQ(net.parent(3), 1u);
  EXPECT_EQ(net.clusterCount(), 3u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, HeadPreferredOverGatewayAndMember) {
  // Node 4 is adjacent to head 0, gateway 1 and member 5; it must join
  // head 0 (Definition 1 priority).
  Graph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(0, 5);
  g.addEdge(4, 0);
  g.addEdge(4, 1);
  g.addEdge(4, 5);
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 5, 4});
  EXPECT_EQ(net.status(4), NodeStatus::kPureMember);
  EXPECT_EQ(net.parent(4), 0u);
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, GatewayPreferredOverMember) {
  Graph g(5);
  g.addEdge(0, 1);
  g.addEdge(1, 2);
  g.addEdge(2, 3);  // member 3 of head 2
  g.addEdge(4, 1);  // 4 sees gateway 1...
  g.addEdge(4, 3);  // ...and member 3
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3, 4});
  EXPECT_EQ(net.status(4), NodeStatus::kClusterHead);
  EXPECT_EQ(net.parent(4), 1u);          // gateway chosen
  EXPECT_EQ(net.status(3), NodeStatus::kPureMember);  // not promoted
  EXPECT_EQ(validationErrors(net), "");
}

TEST(CNetBuildTest, MoveInRequiresNetNeighbor) {
  Graph g(3);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.moveIn(0);
  EXPECT_THROW(net.moveIn(2), PreconditionError);  // isolated from net
}

TEST(CNetBuildTest, MoveInTwiceRejected) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.moveIn(0);
  EXPECT_THROW(net.moveIn(0), PreconditionError);
}

TEST(CNetBuildTest, LineTopologyAlternatesHeadGateway) {
  // A path inserted left-to-right: statuses follow
  // head, gw, head, gw, ... and depth equals index.
  const auto pts = deployLine(7, 50.0);
  auto f = buildNet(pts, 50.0);
  for (NodeId v = 0; v < 7; ++v) {
    EXPECT_EQ(f.net->depth(v), static_cast<Depth>(v));
    if (v % 2 == 0)
      EXPECT_EQ(f.net->status(v), NodeStatus::kClusterHead) << v;
    else
      EXPECT_EQ(f.net->status(v), NodeStatus::kGateway) << v;
  }
  EXPECT_EQ(f.net->height(), 6);
  EXPECT_EQ(validationErrors(*f.net), "");
}

TEST(CNetBuildTest, StarTopologyIsOneCluster) {
  const auto pts = deployStar(6, 50.0);
  auto f = buildNet(pts, 50.0);
  EXPECT_EQ(f.net->clusterCount(), 1u);
  EXPECT_EQ(f.net->backboneNodes(), std::vector<NodeId>{0});
  for (NodeId v = 1; v < 6; ++v)
    EXPECT_EQ(f.net->status(v), NodeStatus::kPureMember);
  EXPECT_EQ(f.net->height(), 1);
  EXPECT_EQ(validationErrors(*f.net), "");
}

TEST(CNetBuildTest, ClusterMembersListsChildren) {
  Graph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(1, 3);  // promotes 1
  ClusterNet net(g);
  net.buildAll({0, 1, 2, 3});
  const auto members = net.clusterMembers(0);
  EXPECT_EQ(members, (std::vector<NodeId>{1, 2}));  // gateway + member
  EXPECT_THROW(net.clusterMembers(1), PreconditionError);  // not a head
}

TEST(CNetBuildTest, QueriesOnOutsiderThrow) {
  Graph g(2);
  g.addEdge(0, 1);
  ClusterNet net(g);
  net.moveIn(0);
  EXPECT_THROW(net.status(1), PreconditionError);
  EXPECT_THROW(net.depth(1), PreconditionError);
  EXPECT_THROW(net.parent(1), PreconditionError);
}

}  // namespace
}  // namespace dsn
