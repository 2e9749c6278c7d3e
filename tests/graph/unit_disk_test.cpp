#include "graph/unit_disk.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>

#include "graph/deploy.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

TEST(UnitDiskTest, EdgeIffWithinRange) {
  const std::vector<Point2D> pts{{0, 0}, {30, 0}, {100, 0}};
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_FALSE(g.hasEdge(1, 2));  // distance 70 > 50
}

TEST(UnitDiskTest, BoundaryDistanceIsConnected) {
  const std::vector<Point2D> pts{{0, 0}, {50, 0}};
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  EXPECT_TRUE(g.hasEdge(0, 1));  // <= range, not <
}

TEST(UnitDiskTest, MatchesBruteForceOnRandomPoints) {
  Rng rng(123);
  std::vector<Point2D> pts;
  for (int i = 0; i < 200; ++i)
    pts.push_back({rng.uniformReal(0, 500), rng.uniformReal(0, 500)});
  const double range = 60.0;
  const Graph g = buildUnitDiskGraph(pts, range);
  for (NodeId i = 0; i < pts.size(); ++i) {
    for (NodeId j = i + 1; j < pts.size(); ++j) {
      EXPECT_EQ(g.hasEdge(i, j), inRange(pts[i], pts[j], range))
          << "pair " << i << "," << j;
    }
  }
}

TEST(UnitDiskTest, NegativeCoordinatesSupported) {
  const std::vector<Point2D> pts{{-100, -100}, {-70, -100}, {100, 100}};
  const Graph g = buildUnitDiskGraph(pts, 50.0);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(0, 2));
}

TEST(UnitDiskTest, ZeroRangeRejected) {
  EXPECT_THROW(buildUnitDiskGraph({}, 0.0), PreconditionError);
}

/// FNV-1a over every node's id, degree and neighbour list, in order.
std::uint64_t adjacencyDigest(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  };
  for (NodeId v = 0; v < g.size(); ++v) {
    mix(v);
    mix(g.degree(v));
    for (NodeId u : g.neighbors(v)) mix(u);
  }
  return h;
}

// Adjacency lists in insertion order, recorded from the hash-map spatial
// index. Node i's list starts with the earlier neighbours one query
// returned, so a query that changed its order or its members moves the
// digest, as would the CSR snapshots and every flood built from them.
TEST(UnitDiskTest, AdjacencyOrderIsPinned) {
  const DeployConfig cfg{Field::squareUnits(10), 50.0, 400};
  Rng uniformRng(21);
  EXPECT_EQ(adjacencyDigest(buildUnitDiskGraph(
                deployUniform(cfg, uniformRng), cfg.range)),
            0xa99935f280da1606ull);
  EXPECT_EQ(adjacencyDigest(buildUnitDiskGraph(deployGrid(cfg), cfg.range)),
            0xb06cd4c2bb463796ull);
  Rng attachRng(22);
  EXPECT_EQ(adjacencyDigest(buildUnitDiskGraph(
                deployIncrementalAttach(cfg, attachRng), cfg.range)),
            0x19e26dc0fa9c9c6eull);
}

TEST(UnitDiskIndexTest, QueryFindsOnlyInRange) {
  UnitDiskIndex idx(50.0);
  idx.insert(0, {0, 0});
  idx.insert(1, {40, 0});
  idx.insert(2, {200, 200});
  const auto near = idx.queryNeighbors({10, 0});
  EXPECT_EQ(near, (std::vector<NodeId>{0, 1}));
}

TEST(UnitDiskIndexTest, RemoveForgetsPoint) {
  UnitDiskIndex idx(50.0);
  idx.insert(7, {0, 0});
  EXPECT_TRUE(idx.contains(7));
  idx.remove(7);
  EXPECT_FALSE(idx.contains(7));
  EXPECT_TRUE(idx.queryNeighbors({0, 0}).empty());
  EXPECT_THROW(idx.remove(7), PreconditionError);
}

TEST(UnitDiskIndexTest, DuplicateIdRejected) {
  UnitDiskIndex idx(10.0);
  idx.insert(1, {0, 0});
  EXPECT_THROW(idx.insert(1, {5, 5}), PreconditionError);
}

TEST(UnitDiskIndexTest, ErrorsKeepTheirText) {
  // Serve copies a refusal's text into an error record, so each stays
  // byte for byte what it was.
  UnitDiskIndex idx(10.0);
  idx.insert(1, {0, 0});
  const auto text = [](const auto& call) -> std::string {
    try {
      call();
    } catch (const PreconditionError& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(text([&] { idx.insert(1, {5, 5}); }),
            "precondition failed: !contains(id) — "
            "UnitDiskIndex::insert: duplicate id");
  EXPECT_EQ(text([&] { idx.remove(2); }),
            "precondition failed: it != positions_.end() — "
            "UnitDiskIndex::remove: unknown id");
  EXPECT_EQ(text([&] { idx.updatePosition(2, {1, 1}); }),
            "precondition failed: it != positions_.end() — "
            "UnitDiskIndex::updatePosition: unknown id");
  EXPECT_EQ(text([&] { idx.position(2); }),
            "precondition failed: it != positions_.end() — "
            "UnitDiskIndex::position: unknown id");
  EXPECT_EQ(text([&] { idx.insert(2, {1e300, 0}); }),
            "precondition failed: q > -kLimit && q < kLimit — "
            "coordinate lies outside the unit-disk grid's 32-bit cells");
  EXPECT_FALSE(idx.contains(2));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(UnitDiskIndexTest, ConstQueriesFromFourThreadsMatchSerial) {
  // Serve's workers share warm networks and read positions through const
  // paths, so const queries on one index must be safe from many threads
  // at once. Under TSan a query that wrote any shared state would race.
  Rng rng(0x7A5);
  UnitDiskIndex idx(50.0);
  for (NodeId v = 0; v < 2000; ++v)
    idx.insert(v, {rng.uniformReal(0, 1000), rng.uniformReal(0, 1000)});
  std::vector<Point2D> probes;
  for (int i = 0; i < 2000; ++i)
    probes.push_back({rng.uniformReal(-60, 1060), rng.uniformReal(-60, 1060)});

  const UnitDiskIndex& shared = idx;
  const auto answer = [&shared, &probes] {
    std::vector<NodeId> all;
    std::vector<NodeId> buffer;
    for (const Point2D& q : probes) {
      shared.queryNeighbors(q, buffer);
      all.push_back(shared.hasNeighbor(q) ? 1 : 0);
      all.insert(all.end(), buffer.begin(), buffer.end());
      all.push_back(kInvalidNode);
    }
    return all;
  };
  const std::vector<NodeId> serial = answer();
  std::vector<std::vector<NodeId>> results(4);
  {
    std::vector<std::jthread> workers;
    for (auto& result : results)
      workers.emplace_back([&result, &answer] { result = answer(); });
  }
  for (const auto& result : results) EXPECT_EQ(result, serial);
}

TEST(UnitDiskIndexTest, PositionRoundTrips) {
  UnitDiskIndex idx(10.0);
  idx.insert(3, {1.5, -2.5});
  EXPECT_EQ(idx.position(3), (Point2D{1.5, -2.5}));
  EXPECT_THROW(idx.position(4), PreconditionError);
}

TEST(UnitDiskIndexTest, MatchesBruteForceAcrossCells) {
  Rng rng(77);
  UnitDiskIndex idx(35.0);
  std::vector<Point2D> pts;
  for (NodeId i = 0; i < 150; ++i) {
    const Point2D p{rng.uniformReal(-200, 200), rng.uniformReal(-200, 200)};
    pts.push_back(p);
    idx.insert(i, p);
  }
  for (int probe = 0; probe < 50; ++probe) {
    const Point2D q{rng.uniformReal(-200, 200), rng.uniformReal(-200, 200)};
    std::vector<NodeId> expected;
    for (NodeId i = 0; i < pts.size(); ++i)
      if (inRange(pts[i], q, 35.0)) expected.push_back(i);
    EXPECT_EQ(idx.queryNeighbors(q), expected);
  }
}

}  // namespace
}  // namespace dsn
