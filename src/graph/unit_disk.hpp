// Unit-disk graph construction from node positions.
//
// The paper models a WSN as a unit-disk-style graph: nodes u, v share an
// edge iff their Euclidean distance is at most the communication range
// (paper Section 2, Property 1(3)). The builder uses a uniform spatial
// grid with cell size = range so edge construction is O(n · density)
// rather than O(n²), which matters for the larger benches.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"
#include "util/geometry.hpp"
#include "util/types.hpp"

namespace dsn {

/// Builds the unit-disk graph over `points` with communication `range`.
/// Node i of the result corresponds to points[i].
Graph buildUnitDiskGraph(const std::vector<Point2D>& points, double range);

/// Incremental unit-disk neighborhood index: a sparse spatial grid that
/// maps a point to the ids of existing points within range. Used by the
/// incremental deployment generator and by dynamic topologies. A grid
/// cell index must fit in 32 bits: every call given a point whose
/// coordinate / range lies beyond about ±2^31 (or is NaN) throws
/// PreconditionError and changes nothing.
class UnitDiskIndex {
 public:
  /// `range` must be positive.
  explicit UnitDiskIndex(double range);

  /// Ids of already-inserted points within `range` of `p`.
  std::vector<NodeId> queryNeighbors(const Point2D& p) const;

  /// Inserts a point under id `id` (caller controls id allocation; ids
  /// must be unique among currently inserted points).
  void insert(NodeId id, const Point2D& p);

  /// Removes a previously inserted id. Precondition: it was inserted.
  void remove(NodeId id);

  /// Moves a previously inserted id to `p` in place. When the new
  /// position stays inside the same grid cell this is a single hash-map
  /// overwrite; otherwise the id migrates between cell buckets. Behaves
  /// exactly like remove(id) + insert(id, p) but without rehashing the
  /// id or reallocating untouched buckets. Precondition: it was inserted.
  void updatePosition(NodeId id, const Point2D& p);

  std::size_t size() const { return positions_.size(); }
  double range() const { return range_; }

  /// Stored position of `id`. Precondition: `id` is present.
  const Point2D& position(NodeId id) const;
  bool contains(NodeId id) const;

 private:
  using CellKey = std::uint64_t;
  static CellKey packKey(std::int64_t cx, std::int64_t cy);
  CellKey cellOf(const Point2D& p) const;

  double range_;
  std::unordered_map<CellKey, std::vector<NodeId>> cells_;
  std::unordered_map<NodeId, Point2D> positions_;
};

}  // namespace dsn
