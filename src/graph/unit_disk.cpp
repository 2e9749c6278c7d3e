#include "graph/unit_disk.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dsn {

Graph buildUnitDiskGraph(const std::vector<Point2D>& points, double range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
  Graph g(points.size());
  UnitDiskIndex index(range);
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j : index.queryNeighbors(points[i])) g.addEdge(i, j);
    index.insert(i, points[i]);
  }
  return g;
}

namespace {

/// Grid cell index of coordinate `c`. packKey keeps 32 bits of each
/// index and a query also visits the neighbouring cells, so the index
/// must stay strictly inside (-(2^31 - 1), 2^31 - 1); anything else
/// (NaN included) is refused before the conversion to an integer.
std::int64_t cellIndex(double c, double range) {
  constexpr double kLimit = 2147483647.0;
  const double q = std::floor(c / range);
  DSN_REQUIRE(q > -kLimit && q < kLimit,
              "coordinate lies outside the unit-disk grid's 32-bit cells");
  return static_cast<std::int64_t>(q);
}

}  // namespace

UnitDiskIndex::UnitDiskIndex(double range) : range_(range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
}

UnitDiskIndex::CellKey UnitDiskIndex::packKey(std::int64_t cx,
                                              std::int64_t cy) {
  // Coordinates are offset into positive space before packing two 32-bit
  // cell indices into one key.
  const auto ux = static_cast<std::uint64_t>(cx + (1ll << 31));
  const auto uy = static_cast<std::uint64_t>(cy + (1ll << 31));
  return (ux << 32) | (uy & 0xFFFFFFFFull);
}

UnitDiskIndex::CellKey UnitDiskIndex::cellOf(const Point2D& p) const {
  // Cell size equals the range, so all neighbors of a point lie in the
  // 3x3 block of cells around it.
  return packKey(cellIndex(p.x, range_), cellIndex(p.y, range_));
}

std::vector<NodeId> UnitDiskIndex::queryNeighbors(const Point2D& p) const {
  const std::int64_t cx = cellIndex(p.x, range_);
  const std::int64_t cy = cellIndex(p.y, range_);
  std::vector<NodeId> out;
  out.reserve(16);
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      // The neighbor cell key comes straight from the integer cell
      // coordinates — synthesizing a float cell-center and re-flooring it
      // would round-trip through doubles and can land in the wrong cell
      // right at a cell boundary.
      const auto it = cells_.find(packKey(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (NodeId id : it->second) {
        if (inRange(positions_.at(id), p, range_)) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void UnitDiskIndex::insert(NodeId id, const Point2D& p) {
  DSN_REQUIRE(!contains(id), "UnitDiskIndex::insert: duplicate id");
  const CellKey cell = cellOf(p);
  positions_.emplace(id, p);
  cells_[cell].push_back(id);
}

void UnitDiskIndex::remove(NodeId id) {
  const auto it = positions_.find(id);
  DSN_REQUIRE(it != positions_.end(), "UnitDiskIndex::remove: unknown id");
  auto& bucket = cells_[cellOf(it->second)];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  positions_.erase(it);
}

void UnitDiskIndex::updatePosition(NodeId id, const Point2D& p) {
  const auto it = positions_.find(id);
  DSN_REQUIRE(it != positions_.end(),
              "UnitDiskIndex::updatePosition: unknown id");
  const CellKey oldCell = cellOf(it->second);
  const CellKey newCell = cellOf(p);
  if (oldCell != newCell) {
    auto& bucket = cells_[oldCell];
    bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
    cells_[newCell].push_back(id);
  }
  it->second = p;
}

const Point2D& UnitDiskIndex::position(NodeId id) const {
  const auto it = positions_.find(id);
  DSN_REQUIRE(it != positions_.end(), "UnitDiskIndex::position: unknown id");
  return it->second;
}

bool UnitDiskIndex::contains(NodeId id) const {
  return positions_.count(id) != 0;
}

}  // namespace dsn
