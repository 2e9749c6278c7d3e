// Property tests for the spatial-grid unit-disk structures against a
// brute-force O(n^2) distance scan: the grid is an optimization and must
// be observationally identical to the definition.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "graph/unit_disk.hpp"
#include "util/rng.hpp"

namespace dsn {
namespace {

std::vector<Point2D> randomPoints(Rng& rng, std::size_t n, double side) {
  std::vector<Point2D> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniformReal(0.0, side), rng.uniformReal(0.0, side)});
  }
  return points;
}

TEST(UnitDiskPropertyTest, GraphMatchesBruteForce) {
  Rng rng(0xD15C0);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 20 + static_cast<std::size_t>(rng.uniform(100));
    const double side = rng.uniformReal(100.0, 500.0);
    const double range = rng.uniformReal(20.0, 120.0);
    const std::vector<Point2D> points = randomPoints(rng, n, side);

    const Graph g = buildUnitDiskGraph(points, range);
    ASSERT_EQ(g.size(), n);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const bool expected = u != v && inRange(points[u], points[v], range);
        EXPECT_EQ(g.hasEdge(u, v), expected)
            << "trial " << trial << " edge (" << u << "," << v << ")";
      }
    }
  }
}

TEST(UnitDiskPropertyTest, GridCellBoundariesAreExact) {
  // Points placed exactly `range` apart sit on the unit-disk boundary
  // (edge present: distance <= range) and, at multiples of the cell
  // size, also on grid-cell boundaries — the classic off-by-one-cell
  // bug surface.
  const double range = 50.0;
  const std::vector<Point2D> points = {
      {0.0, 0.0}, {50.0, 0.0}, {100.0, 0.0}, {0.0, 50.0}, {50.001, 50.0}};
  const Graph g = buildUnitDiskGraph(points, range);
  EXPECT_TRUE(g.hasEdge(0, 1));   // exactly at range
  EXPECT_FALSE(g.hasEdge(0, 2));  // 2x range
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_TRUE(g.hasEdge(0, 3));
  EXPECT_FALSE(g.hasEdge(3, 4));  // just past range
}

TEST(UnitDiskPropertyTest, IndexMatchesBruteForceUnderChurn) {
  Rng rng(0xD15C1);
  const double range = 60.0;
  UnitDiskIndex index(range);
  std::unordered_map<NodeId, Point2D> live;
  NodeId nextId = 0;

  for (int step = 0; step < 400; ++step) {
    const bool doInsert = live.empty() || rng.chance(0.6);
    if (doInsert) {
      const Point2D p{rng.uniformReal(0.0, 400.0),
                      rng.uniformReal(0.0, 400.0)};
      index.insert(nextId, p);
      live.emplace(nextId, p);
      ++nextId;
    } else {
      // Remove a random live id.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.uniform(live.size())));
      index.remove(it->first);
      live.erase(it);
    }
    ASSERT_EQ(index.size(), live.size());

    // Cross-check a random probe point against the definition.
    const Point2D probe{rng.uniformReal(-50.0, 450.0),
                        rng.uniformReal(-50.0, 450.0)};
    std::vector<NodeId> expected;
    for (const auto& [id, p] : live) {
      if (inRange(probe, p, range)) expected.push_back(id);
    }
    std::vector<NodeId> got = index.queryNeighbors(probe);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "step " << step;
  }

  // Stored positions survive the churn.
  for (const auto& [id, p] : live) {
    ASSERT_TRUE(index.contains(id));
    EXPECT_EQ(index.position(id), p);
  }
}

TEST(UnitDiskPropertyTest, UpdatePositionMatchesBruteForceUnderMotion) {
  // The in-place move fast path must be observationally identical to
  // remove + insert. The motion mix deliberately covers both branches:
  // small jitters that stay inside one grid cell and long jumps that
  // migrate between cell buckets (plus moves landing exactly on cell
  // boundaries, the classic off-by-one surface).
  Rng rng(0xD15C2);
  const double range = 50.0;
  UnitDiskIndex index(range);
  std::vector<Point2D> pos;
  const std::size_t n = 60;
  for (NodeId v = 0; v < n; ++v) {
    pos.push_back({rng.uniformReal(0.0, 400.0), rng.uniformReal(0.0, 400.0)});
    index.insert(v, pos.back());
  }

  for (int step = 0; step < 500; ++step) {
    const NodeId v = static_cast<NodeId>(rng.uniform(n));
    Point2D p;
    switch (rng.uniform(3)) {
      case 0:  // same-cell jitter
        p = {pos[v].x + rng.uniformReal(-1.0, 1.0),
             pos[v].y + rng.uniformReal(-1.0, 1.0)};
        break;
      case 1:  // long jump across cells
        p = {rng.uniformReal(0.0, 400.0), rng.uniformReal(0.0, 400.0)};
        break;
      default:  // snap onto a cell-boundary multiple of the range
        p = {range * static_cast<double>(rng.uniform(9)),
             range * static_cast<double>(rng.uniform(9))};
        break;
    }
    index.updatePosition(v, p);
    pos[v] = p;
    ASSERT_EQ(index.size(), n);
    EXPECT_EQ(index.position(v), p);

    // Neighborhood queries match the O(n) definition...
    const NodeId probeId = static_cast<NodeId>(rng.uniform(n));
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < n; ++u) {
      if (u != probeId && inRange(pos[probeId], pos[u], range))
        expected.push_back(u);
    }
    std::vector<NodeId> got = index.queryNeighbors(pos[probeId]);
    got.erase(std::remove(got.begin(), got.end(), probeId), got.end());
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "step " << step;
  }

  // ...and the final state is identical to an index rebuilt from scratch.
  UnitDiskIndex fresh(range);
  for (NodeId v = 0; v < n; ++v) fresh.insert(v, pos[v]);
  for (int probe = 0; probe < 50; ++probe) {
    const Point2D q{rng.uniformReal(-20.0, 420.0),
                    rng.uniformReal(-20.0, 420.0)};
    std::vector<NodeId> a = index.queryNeighbors(q);
    std::vector<NodeId> b = fresh.queryNeighbors(q);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "probe " << probe;
  }
}

TEST(UnitDiskPropertyTest, QueryFormsAgreeUnderChurnAndMotion) {
  // hasNeighbor and the buffer form answer from the same visiting loop
  // as the vector form; they must agree with it and with the definition
  // on probes anywhere, cell corners and negative coordinates included,
  // while inserts, removes and cross-cell moves reshape the cell lists
  // between probes.
  Rng rng(0xD15C3);
  const double range = 40.0;
  UnitDiskIndex index(range);
  std::vector<Point2D> pos;
  std::vector<bool> live;
  std::vector<NodeId> buffer;
  const auto randomPoint = [&rng] {
    return Point2D{rng.uniformReal(-300.0, 300.0),
                   rng.uniformReal(-300.0, 300.0)};
  };
  const auto probePoint = [&]() -> Point2D {
    switch (rng.uniform(3)) {
      case 0:  // a cell corner, often negative
        return {range * static_cast<double>(rng.uniform(17)) - 8 * range,
                range * static_cast<double>(rng.uniform(17)) - 8 * range};
      case 1:  // near a stored point, which may have left
        if (!pos.empty()) {
          const Point2D& at = pos[rng.uniform(pos.size())];
          return {at.x + rng.uniformReal(-range, range),
                  at.y + rng.uniformReal(-range, range)};
        }
        return randomPoint();
      default:
        return randomPoint();
    }
  };

  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t op = rng.uniform(4);
    std::vector<NodeId> liveIds;
    for (NodeId v = 0; v < pos.size(); ++v)
      if (live[v]) liveIds.push_back(v);
    if (op <= 1 || liveIds.empty()) {
      // Most ids are fresh; a few re-enter after a removal.
      const Point2D p = randomPoint();
      if (liveIds.size() < pos.size() && rng.chance(0.3)) {
        NodeId v = static_cast<NodeId>(rng.uniform(pos.size()));
        while (live[v]) v = (v + 1) % static_cast<NodeId>(pos.size());
        index.insert(v, p);
        pos[v] = p;
        live[v] = true;
      } else {
        index.insert(static_cast<NodeId>(pos.size()), p);
        pos.push_back(p);
        live.push_back(true);
      }
    } else if (op == 2) {
      const NodeId v = liveIds[rng.uniform(liveIds.size())];
      index.remove(v);
      live[v] = false;
    } else {
      // Across cells: a jump of at least one range in x.
      const NodeId v = liveIds[rng.uniform(liveIds.size())];
      const Point2D p{pos[v].x + (rng.chance(0.5) ? 1.0 : -1.0) *
                                     rng.uniformReal(range, 3 * range),
                      pos[v].y + rng.uniformReal(-range, range)};
      index.updatePosition(v, p);
      pos[v] = p;
    }

    for (int probe = 0; probe < 4; ++probe) {
      const Point2D q = probePoint();
      std::vector<NodeId> expected;
      for (NodeId v = 0; v < pos.size(); ++v)
        if (live[v] && inRange(pos[v], q, range)) expected.push_back(v);
      const std::vector<NodeId> got = index.queryNeighbors(q);
      index.queryNeighbors(q, buffer);
      EXPECT_EQ(got, expected) << "step " << step;
      EXPECT_EQ(buffer, got) << "step " << step;
      EXPECT_EQ(index.hasNeighbor(q), !got.empty()) << "step " << step;
    }
  }
  EXPECT_GT(index.size(), 100u);
}

}  // namespace
}  // namespace dsn
