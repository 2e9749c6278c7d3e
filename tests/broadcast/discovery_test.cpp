// Randomized neighbor discovery (the [19] attach handshake): full
// discovery with high probability, O(d) expected rounds.
#include <gtest/gtest.h>

#include "broadcast/neighbor_discovery.hpp"
#include "graph/deploy.hpp"
#include "graph/unit_disk.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

Graph starGraph(std::size_t leaves) {
  Graph g(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) g.addEdge(0, v);
  return g;
}

TEST(DiscoveryTest, SingleNeighbor) {
  Graph g(2);
  g.addEdge(0, 1);
  const auto result = runNeighborDiscovery(g, 0);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.discovered, std::vector<NodeId>{1});
  // One fruitful cycle + the silent-streak termination tail.
  EXPECT_LT(result.rounds, 300);
}

TEST(DiscoveryTest, IsolatedJoinerFinishesEmpty) {
  Graph g(2);  // no edges
  const auto result = runNeighborDiscovery(g, 0);
  EXPECT_TRUE(result.complete);  // vacuously
  EXPECT_TRUE(result.discovered.empty());
  // Doubles the window up to the no-one-out-there cutoff, then stops.
  EXPECT_LT(result.rounds, 300);
}

class DiscoverySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, int>> {};

TEST_P(DiscoverySweep, DiscoversAllNeighbors) {
  const auto [degree, seed] = GetParam();
  Graph g = starGraph(degree);
  DiscoveryConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  const auto result = runNeighborDiscovery(g, 0, cfg);
  EXPECT_TRUE(result.complete)
      << "degree " << degree << " seed " << seed << " found "
      << result.discovered.size();
  EXPECT_EQ(result.discovered.size(), degree);
}

INSTANTIATE_TEST_SUITE_P(
    DegreesAndSeeds, DiscoverySweep,
    ::testing::Values(std::make_pair(std::size_t{2}, 1),
                      std::make_pair(std::size_t{5}, 2),
                      std::make_pair(std::size_t{10}, 3),
                      std::make_pair(std::size_t{25}, 4),
                      std::make_pair(std::size_t{50}, 5),
                      std::make_pair(std::size_t{50}, 6)));

TEST(DiscoveryTest, RoundsScaleRoughlyLinearlyWithDegree) {
  // The paper's attach assumption: O(d_new) expected rounds. Average a
  // few seeds and check rounds/degree stays within a sane constant.
  for (std::size_t degree : {8u, 32u}) {
    double total = 0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      Graph g = starGraph(degree);
      DiscoveryConfig cfg;
      cfg.seed = 100u + static_cast<std::uint64_t>(t);
      const auto result = runNeighborDiscovery(g, 0, cfg);
      ASSERT_TRUE(result.complete);
      total += static_cast<double>(result.rounds);
    }
    // O(d) slope plus an additive termination tail (~130 rounds): the
    // per-neighbor cost must stay bounded once the tail is amortized.
    const double tail = 140.0;
    const double perNeighbor =
        (total / trials - tail) / static_cast<double>(degree);
    EXPECT_LT(perNeighbor, 20.0) << "degree " << degree;
  }
}

TEST(DiscoveryTest, WorksInsideADeployment) {
  Rng rng(77);
  const auto pts =
      deployIncrementalAttach({Field::squareUnits(6), 60.0, 120}, rng);
  const Graph g = buildUnitDiskGraph(pts, 60.0);
  // Discover from the busiest node.
  NodeId busiest = 0;
  for (NodeId v = 1; v < g.size(); ++v)
    if (g.degree(v) > g.degree(busiest)) busiest = v;
  const auto result = runNeighborDiscovery(g, busiest);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.discovered.size(), g.degree(busiest));
}

TEST(DiscoveryTest, DeterministicGivenSeed) {
  Graph g = starGraph(12);
  DiscoveryConfig cfg;
  cfg.seed = 9;
  const auto a = runNeighborDiscovery(g, 0, cfg);
  const auto b = runNeighborDiscovery(g, 0, cfg);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.discovered, b.discovered);
}

TEST(DiscoveryTest, HandshakeIsPinnedExactly) {
  // One seeded handshake, pinned field for field: any change to the
  // HELLO/reply/ACK cycle, the window growth or the stopping rule, or to
  // the responders' slot draws shows up here.
  Graph g = starGraph(12);
  DiscoveryConfig cfg;
  cfg.seed = 9;
  const auto result = runNeighborDiscovery(g, 0, cfg);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.rounds, 164);
  EXPECT_EQ(result.transmissions, 62u);
  EXPECT_EQ(result.collisions, 8u);
  EXPECT_EQ(result.discovered,
            (std::vector<NodeId>{5, 7, 10, 1, 6, 8, 9, 4, 11, 2, 12, 3}));
}

TEST(DiscoveryTest, InvalidConfigRejected) {
  Graph g(2);
  g.addEdge(0, 1);
  DiscoveryConfig cfg;
  cfg.initialWindow = 0;
  EXPECT_THROW(runNeighborDiscovery(g, 0, cfg), PreconditionError);
}

}  // namespace
}  // namespace dsn
