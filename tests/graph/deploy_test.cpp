#include "graph/deploy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/unit_disk.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

TEST(FieldTest, SquareUnits) {
  const Field f = Field::squareUnits(10, 100.0);
  EXPECT_DOUBLE_EQ(f.width, 1000.0);
  EXPECT_DOUBLE_EQ(f.height, 1000.0);
  EXPECT_THROW(Field::squareUnits(0), PreconditionError);
}

TEST(DeployTest, UniformStaysInsideField) {
  Rng rng(1);
  const DeployConfig cfg{Field{200, 100}, 30.0, 500};
  const auto pts = deployUniform(cfg, rng);
  ASSERT_EQ(pts.size(), 500u);
  for (const auto& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 200.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(DeployTest, UniformIsSeedDeterministic) {
  const DeployConfig cfg{Field{100, 100}, 10.0, 50};
  Rng a(9), b(9);
  EXPECT_EQ(deployUniform(cfg, a), deployUniform(cfg, b));
}

TEST(DeployTest, ZeroNodes) {
  Rng rng(2);
  const DeployConfig cfg{Field{10, 10}, 5.0, 0};
  EXPECT_TRUE(deployUniform(cfg, rng).empty());
  EXPECT_TRUE(deployIncrementalAttach(cfg, rng).empty());
}

TEST(DeployTest, InvalidConfigRejected) {
  Rng rng(3);
  EXPECT_THROW(deployUniform({Field{0, 10}, 5.0, 1}, rng),
               PreconditionError);
  EXPECT_THROW(deployUniform({Field{10, 10}, 0.0, 1}, rng),
               PreconditionError);
}

// The paper's sparse settings: incremental attach must produce a
// connected unit-disk graph at every density.
class IncrementalAttachTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(IncrementalAttachTest, ProducesConnectedGraph) {
  const auto [seed, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const DeployConfig cfg{Field::squareUnits(10), 50.0, n};
  const auto pts = deployIncrementalAttach(cfg, rng);
  ASSERT_EQ(pts.size(), n);
  for (const auto& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, cfg.field.width);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, cfg.field.height);
  }
  const Graph g = buildUnitDiskGraph(pts, cfg.range);
  EXPECT_TRUE(isConnected(g)) << "seed=" << seed << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, IncrementalAttachTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{20}, std::size_t{100},
                                         std::size_t{300})));

// Every prefix is connected too — the sequence is a valid node-move-in
// order (each node lands within range of an earlier one).
TEST(DeployTest, IncrementalPrefixesAreAttachable) {
  Rng rng(11);
  const DeployConfig cfg{Field::squareUnits(8), 50.0, 150};
  const auto pts = deployIncrementalAttach(cfg, rng);
  UnitDiskIndex idx(cfg.range);
  idx.insert(0, pts[0]);
  for (NodeId i = 1; i < pts.size(); ++i) {
    EXPECT_FALSE(idx.queryNeighbors(pts[i]).empty())
        << "node " << i << " has no earlier neighbor";
    idx.insert(i, pts[i]);
  }
}

/// FNV-1a over the bit patterns of every point's coordinates, in order.
std::uint64_t pointDigest(const std::vector<Point2D>& pts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (const Point2D& p : pts) {
    mix(std::bit_cast<std::uint64_t>(p.x));
    mix(std::bit_cast<std::uint64_t>(p.y));
  }
  return h;
}

// The exact points incremental attach draws at range 50, recorded from
// the hash-map spatial index. The rejection test and the annulus
// fallback both consume the rng, so an index change that alters any
// answer moves every later point. Rows: the serve churn shape (200
// nodes in 10 x 10 units) at three seeds, each with 7-8 fallbacks; 40
// nodes in the same field, sparse enough that 3 early nodes exhaust
// their 64 rejections and take the fallback; and 500 nodes packed into
// 4 x 4 units, which never falls back.
TEST(DeployTest, IncrementalAttachPointsArePinned) {
  struct Row {
    std::uint64_t seed;
    std::size_t nodes;
    int units;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {1, 200, 10, 0xb4401ff16ef11f3aull},
      {2, 200, 10, 0x8e7b9f15c27772bcull},
      {3, 200, 10, 0x0059ea05d0f8c31dull},
      {4, 40, 10, 0x9e3dccedc7408cdeull},
      {5, 500, 4, 0xa14dfdb14d362379ull},
  };
  for (const Row& row : rows) {
    Rng rng(row.seed);
    const auto pts = deployIncrementalAttach(
        {Field::squareUnits(row.units), 50.0, row.nodes}, rng);
    ASSERT_EQ(pts.size(), row.nodes);
    EXPECT_EQ(pointDigest(pts), row.digest)
        << "seed " << row.seed << " n " << row.nodes << " units "
        << row.units << ": got 0x" << std::hex << pointDigest(pts);
  }
}

TEST(DeployTest, GridNeighborsWithinRange) {
  const DeployConfig cfg{Field{400, 400}, 50.0, 30};
  const auto pts = deployGrid(cfg);
  ASSERT_EQ(pts.size(), 30u);
  const Graph g = buildUnitDiskGraph(pts, cfg.range);
  EXPECT_TRUE(isConnected(g));
}

TEST(DeployTest, LineIsAPath) {
  const auto pts = deployLine(10, 50.0);
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  EXPECT_TRUE(isConnected(g));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(9), 1u);
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 9);
}

TEST(DeployTest, StarHubConnectsToAllLeaves) {
  const auto pts = deployStar(8, 50.0);
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  EXPECT_EQ(g.degree(0), 7u);
  EXPECT_TRUE(isConnected(g));
}

TEST(DeployTest, StarFewLeavesAreIndependent) {
  // With 5 leaves on the circle, adjacent leaves are ~1.18r apart.
  const auto pts = deployStar(6, 50.0);
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  for (NodeId i = 1; i < 6; ++i)
    for (NodeId j = i + 1; j < 6; ++j)
      EXPECT_FALSE(g.hasEdge(i, j)) << i << "," << j;
}

}  // namespace
}  // namespace dsn
