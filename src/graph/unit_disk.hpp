// Unit-disk graph construction and the incremental neighbourhood index.
//
// The paper models a WSN as a unit-disk-style graph: nodes u, v share an
// edge iff their Euclidean distance is at most the communication range
// (paper Section 2, Property 1(3)). Both the builder and the index cut
// the plane into square cells of side `range`, so every point within
// range of p lies in the 3x3 block of cells around p's cell and a query
// costs O(density), not O(n).
//
// UnitDiskIndex is flat. The cell table is open-addressed by packed cell
// key; each occupied cell holds the head of an intrusive singly linked
// list threaded through one `next` link per id (the wake calendar's
// idiom). Positions and presence are dense columns indexed by id, so ids
// are expected to be graph node ids, dense from 0; the columns grow to
// the largest id inserted. The cell table grows with the cells points
// have occupied; a cell emptied by removals keeps its slot until the
// next growth drops it. Queries write only into a caller's buffer, so
// once the buffer is warm they never allocate, and const queries from
// many threads at once are safe: no const member writes any state.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/geometry.hpp"
#include "util/types.hpp"

namespace dsn {

/// Builds the unit-disk graph over `points` with communication `range`.
/// Node i of the result corresponds to points[i].
Graph buildUnitDiskGraph(const std::vector<Point2D>& points, double range);

/// Incremental unit-disk neighborhood index: maps a point to the ids of
/// stored points within range. Used by the incremental deployment
/// generator and by dynamic topologies. A grid cell index must fit in 32
/// bits: every call given a point whose coordinate / range lies beyond
/// about ±2^31 (or is NaN) throws PreconditionError and changes nothing.
class UnitDiskIndex {
 public:
  /// `range` must be positive.
  explicit UnitDiskIndex(double range);

  /// True when some stored point lies within `range` of `p`; stops at
  /// the first one found.
  bool hasNeighbor(const Point2D& p) const;

  /// Replaces `out` with the ids of stored points within `range` of
  /// `p`, in ascending order. Allocates only to grow `out`.
  void queryNeighbors(const Point2D& p, std::vector<NodeId>& out) const;

  /// The same ids in a fresh vector.
  std::vector<NodeId> queryNeighbors(const Point2D& p) const;

  /// Inserts a point under id `id` (caller controls id allocation; ids
  /// must be unique among currently inserted points).
  void insert(NodeId id, const Point2D& p);

  /// Removes a previously inserted id. Precondition: it was inserted.
  void remove(NodeId id);

  /// Moves a previously inserted id to `p`. Within one grid cell this
  /// only overwrites the stored position; otherwise the id moves from
  /// one cell's list to the other's. Behaves exactly like remove(id) +
  /// insert(id, p). Precondition: it was inserted.
  void updatePosition(NodeId id, const Point2D& p);

  std::size_t size() const { return size_; }
  double range() const { return range_; }

  /// Stored position of `id`. Precondition: `id` is present.
  const Point2D& position(NodeId id) const;
  bool contains(NodeId id) const {
    return id < present_.size() && present_[id] != 0;
  }

 private:
  using CellKey = std::uint64_t;
  /// A cell table slot: the cell's key (kEmptyKey when the slot is free)
  /// and the first id of its list (kInvalidNode when the cell is empty).
  struct Cell {
    CellKey key;
    NodeId head;
  };
  /// No packed key is 0: both packed halves are at least 1.
  static constexpr CellKey kEmptyKey = 0;

  static CellKey packKey(std::int64_t cx, std::int64_t cy);
  CellKey cellOf(const Point2D& p) const;
  /// Slot holding `key`, or the free slot where it would go.
  std::size_t slotOf(CellKey key) const;
  /// Calls visit(id) for each stored id within range of `p` until it
  /// returns true; returns whether one did.
  template <class Visit>
  bool visitInRange(const Point2D& p, Visit&& visit) const;
  void link(NodeId id, CellKey cell);
  void unlink(NodeId id, CellKey cell);
  /// Doubles the cell table, dropping cells whose lists are empty.
  void grow();

  double range_;
  std::size_t size_ = 0;
  // Open-addressed cell table (power-of-two size, linear probing, load
  // at most 1/2), the number of its slots in use, and 64 - log2(size),
  // the shift that turns a key's hash into a slot.
  std::vector<Cell> cells_;
  std::size_t usedCells_ = 0;
  int shift_;
  // Dense columns by id: stored position, presence and list link.
  std::vector<Point2D> pos_;
  std::vector<std::uint8_t> present_;
  std::vector<NodeId> next_;
};

}  // namespace dsn
