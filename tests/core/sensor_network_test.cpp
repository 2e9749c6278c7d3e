// SensorNetwork facade: deployment, dynamics, communication end-to-end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/sensor_network.hpp"

namespace dsn {
namespace {

TEST(SensorNetworkTest, BuildsPaperScaleNetwork) {
  NetworkConfig cfg;
  cfg.nodeCount = 200;
  cfg.seed = 42;
  SensorNetwork net(cfg);
  EXPECT_EQ(net.size(), 200u);
  EXPECT_TRUE(net.validate().ok()) << net.validate().summary();
  const auto stats = net.stats();
  EXPECT_EQ(stats.networkSize, 200u);
  EXPECT_GT(stats.backboneSize, 0u);
}

TEST(SensorNetworkTest, DeterministicForSameSeed) {
  NetworkConfig cfg;
  cfg.nodeCount = 80;
  cfg.seed = 7;
  SensorNetwork a(cfg), b(cfg);
  EXPECT_EQ(a.initialPoints(), b.initialPoints());
  EXPECT_EQ(a.stats().backboneSize, b.stats().backboneSize);
  EXPECT_EQ(a.stats().maxBSlot, b.stats().maxBSlot);
}

TEST(SensorNetworkTest, BroadcastThroughFacade) {
  NetworkConfig cfg;
  cfg.nodeCount = 120;
  cfg.seed = 9;
  SensorNetwork net(cfg);
  Rng rng(1);
  const NodeId source = net.randomNode(rng);
  for (auto scheme : {BroadcastScheme::kDfo, BroadcastScheme::kCff,
                      BroadcastScheme::kImprovedCff}) {
    const auto run = net.broadcast(scheme, source, 0xCAFE);
    EXPECT_TRUE(run.allDelivered()) << toString(scheme);
  }
}

TEST(SensorNetworkTest, MulticastThroughFacade) {
  NetworkConfig cfg;
  cfg.nodeCount = 120;
  cfg.seed = 10;
  SensorNetwork net(cfg);
  Rng rng(2);
  for (int i = 0; i < 10; ++i) net.joinGroup(net.randomNode(rng), 4);
  const auto run = net.multicast(net.clusterNet().root(), 4, 0xCAFE,
                                 MulticastMode::kFullFlood);
  EXPECT_TRUE(run.allDelivered());
}

TEST(SensorNetworkTest, AddSensorJoinsWhenInRange) {
  NetworkConfig cfg;
  cfg.nodeCount = 50;
  cfg.seed = 11;
  SensorNetwork net(cfg);
  const Point2D nearExisting{net.position(0).x + 10.0,
                             net.position(0).y};
  bool joined = false;
  const NodeId v = net.addSensor(nearExisting, &joined);
  EXPECT_TRUE(joined);
  EXPECT_TRUE(net.clusterNet().contains(v));
  EXPECT_TRUE(net.validate().ok()) << net.validate().summary();
  EXPECT_EQ(net.size(), 51u);
}

TEST(SensorNetworkTest, AddSensorOutOfRangeStaysOutside) {
  NetworkConfig cfg;
  cfg.nodeCount = 30;
  cfg.seed = 12;
  cfg.field = Field::squareUnits(4);
  SensorNetwork net(cfg);
  bool joined = true;
  const NodeId v = net.addSensor({9999.0, 9999.0}, &joined);
  EXPECT_FALSE(joined);
  EXPECT_FALSE(net.clusterNet().contains(v));
  EXPECT_TRUE(net.graph().isAlive(v));
}

TEST(SensorNetworkTest, RemoveSensorReconfigures) {
  NetworkConfig cfg;
  cfg.nodeCount = 100;
  cfg.seed = 13;
  SensorNetwork net(cfg);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const NodeId victim = net.randomNode(rng);
    net.removeSensor(victim);
    ASSERT_TRUE(net.validate().ok())
        << "after removing " << victim << ": "
        << net.validate().summary();
  }
  EXPECT_LE(net.size(), 90u);  // 10 removed; orphans may add to the loss
}

TEST(SensorNetworkTest, LifecycleChurnKeepsWorking) {
  NetworkConfig cfg;
  cfg.nodeCount = 80;
  cfg.seed = 14;
  SensorNetwork net(cfg);
  Rng rng(4);
  for (int step = 0; step < 10; ++step) {
    // Remove one, add one near a random survivor, broadcast.
    net.removeSensor(net.randomNode(rng));
    const NodeId anchor = net.randomNode(rng);
    net.addSensor({net.position(anchor).x + rng.uniformReal(-20, 20),
                   net.position(anchor).y + rng.uniformReal(-20, 20)});
    ASSERT_TRUE(net.validate().ok()) << net.validate().summary();
    const auto run = net.broadcast(BroadcastScheme::kImprovedCff,
                                   net.randomNode(rng), 1);
    EXPECT_TRUE(run.allDelivered()) << "step " << step;
  }
}

TEST(SensorNetworkTest, UniformDeploymentCoversComponentOfFirstNode) {
  NetworkConfig cfg;
  cfg.nodeCount = 150;
  cfg.seed = 15;
  cfg.deployment = DeploymentKind::kUniform;
  cfg.field = Field::squareUnits(12);  // sparse: will fragment
  SensorNetwork net(cfg);
  // The net covers a (possibly small) component; everything in it valid.
  EXPECT_TRUE(net.validate().ok()) << net.validate().summary();
  EXPECT_GE(net.size(), 1u);
  EXPECT_LE(net.size(), 150u);
}

TEST(SensorNetworkTest, ExplicitPointsConstructor) {
  std::vector<Point2D> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  SensorNetwork net(pts, 40.0);
  EXPECT_EQ(net.size(), 4u);
  EXPECT_TRUE(net.validate().ok());
  const auto run = net.broadcast(BroadcastScheme::kCff, 0, 1);
  EXPECT_TRUE(run.allDelivered());
}

TEST(SensorNetworkTest, GridLineStarDeployments) {
  for (auto kind : {DeploymentKind::kGrid, DeploymentKind::kLine,
                    DeploymentKind::kStar}) {
    NetworkConfig cfg;
    cfg.nodeCount = 25;
    cfg.deployment = kind;
    SensorNetwork net(cfg);
    EXPECT_EQ(net.size(), 25u);
    EXPECT_TRUE(net.validate().ok());
  }
}

/// FNV-1a over every deployed node's id, liveness and adjacency list in
/// order, then its parent and status when it is in the net.
std::uint64_t networkDigest(const SensorNetwork& net) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  const Graph& g = net.graph();
  const ClusterNet& cn = net.clusterNet();
  for (NodeId v = 0; v < g.size(); ++v) {
    mix(v);
    mix(g.isAlive(v) ? 1 : 0);
    mix(g.degree(v));
    for (NodeId u : g.neighbors(v)) mix(u);
    if (cn.contains(v)) {
      mix(cn.parent(v));
      mix(static_cast<std::uint64_t>(cn.status(v)));
    } else {
      mix(kInvalidNode);
    }
  }
  return h;
}

/// First node after `v` whose 50 m grid cell differs from v's.
NodeId nodeInAnotherCell(const SensorNetwork& net, NodeId v) {
  const auto cell = [&net](NodeId u) {
    return std::pair{std::floor(net.position(u).x / net.range()),
                     std::floor(net.position(u).y / net.range())};
  };
  NodeId u = v + 1;
  while (cell(u) == cell(v)) ++u;
  return u;
}

// Adjacency lists, parents and statuses after a fixed script of
// additions, moves within and across grid cells, a removal and a crash,
// recorded from the hash-map spatial index. addSensor and moveSensor
// wire edges in the order the index answers, and moveIn picks among net
// neighbours by status and id, so an index or parent-choice change that
// alters either moves the digest.
TEST(SensorNetworkTest, AdjacencyAfterScriptIsPinned) {
  NetworkConfig cfg;
  cfg.nodeCount = 120;
  cfg.seed = 17;
  SensorNetwork net(cfg);

  const Point2D at3 = net.position(3);
  net.addSensor({at3.x + 10.0, at3.y + 5.0});
  net.addSensor({9999.0, 9999.0});  // out of range: deployed, not joined

  // Within its cell: to the centre of the cell node 5 sits in.
  const double r = net.range();
  net.moveSensor(5, {(std::floor(net.position(5).x / r) + 0.5) * r,
                     (std::floor(net.position(5).y / r) + 0.5) * r});
  // Across cells: next to a node in another cell.
  const NodeId far = nodeInAnotherCell(net, 8);
  net.moveSensor(8, {net.position(far).x + 12.0,
                     net.position(far).y - 7.0});

  const Point2D at20 = net.position(20);
  net.removeSensor(20);
  net.addSensor({at20.x - 4.0, at20.y + 3.0});
  net.crashSensor(33);

  EXPECT_TRUE(net.graph().isAlive(8));
  EXPECT_EQ(networkDigest(net), 0xdba2d520b7117bf9ull)
      << "got 0x" << std::hex << networkDigest(net);
}

// A crashed node stays in the net until a repair, but it has left the
// radio field and the unit-disk index. Removing it is refused in the
// network's own words before anything changes.
TEST(SensorNetworkTest, RemovingACrashedNodeIsRefusedUnchanged) {
  NetworkConfig cfg;
  cfg.nodeCount = 40;
  cfg.seed = 7;
  SensorNetwork net(cfg);
  const NodeId victim = net.clusterNet().root() == 5 ? 6 : 5;
  net.crashSensor(victim);
  ASSERT_TRUE(net.clusterNet().contains(victim));
  const std::uint64_t digest = networkDigest(net);
  const std::size_t size = net.size();
  const std::string report = net.validate().summary();

  try {
    net.removeSensor(victim);
    FAIL() << "removeSensor accepted a crashed node";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("removeSensor: node not deployed"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(networkDigest(net), digest);
  EXPECT_EQ(net.size(), size);
  EXPECT_EQ(net.validate().summary(), report);
}

}  // namespace
}  // namespace dsn
