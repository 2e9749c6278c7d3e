#include "graph/unit_disk.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dsn {

Graph buildUnitDiskGraph(const std::vector<Point2D>& points, double range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
  Graph g(points.size());
  UnitDiskIndex index(range);
  std::vector<NodeId> nearby;
  for (NodeId i = 0; i < points.size(); ++i) {
    index.queryNeighbors(points[i], nearby);
    for (NodeId j : nearby) g.addEdge(i, j);
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

/// Refuses an id the index does not hold. Serve copies the text into
/// error records, so it stays the one this check has always given,
/// which names the lookup of the hash-map index it replaced.
[[noreturn]] void refuseUnknownId(const char* message) {
  detail::throwPrecondition("it != positions_.end()", message);
}

/// Fibonacci hashing: the top bits of key * 2^64/phi pick the slot.
constexpr std::uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;
constexpr int kInitialCellBits = 4;

}  // namespace

UnitDiskIndex::UnitDiskIndex(double range)
    : range_(range),
      cells_(std::size_t{1} << kInitialCellBits,
             Cell{kEmptyKey, kInvalidNode}),
      shift_(64 - kInitialCellBits) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
}

UnitDiskIndex::CellKey UnitDiskIndex::packKey(std::int64_t cx,
                                              std::int64_t cy) {
  // Coordinates are offset into positive space before packing two 32-bit
  // cell indices into one key. cellIndex keeps each index and its
  // neighbours above -2^31, so both halves are at least 1.
  const auto ux = static_cast<std::uint64_t>(cx + (1ll << 31));
  const auto uy = static_cast<std::uint64_t>(cy + (1ll << 31));
  return (ux << 32) | (uy & 0xFFFFFFFFull);
}

UnitDiskIndex::CellKey UnitDiskIndex::cellOf(const Point2D& p) const {
  return packKey(cellIndex(p.x, range_), cellIndex(p.y, range_));
}

std::size_t UnitDiskIndex::slotOf(CellKey key) const {
  const std::size_t mask = cells_.size() - 1;
  auto slot = static_cast<std::size_t>((key * kHashMultiplier) >> shift_);
  while (cells_[slot].key != key && cells_[slot].key != kEmptyKey)
    slot = (slot + 1) & mask;
  return slot;
}

template <class Visit>
bool UnitDiskIndex::visitInRange(const Point2D& p, Visit&& visit) const {
  // Cell size equals the range, so all neighbors of a point lie in the
  // 3x3 block of cells around it.
  const std::int64_t cx = cellIndex(p.x, range_);
  const std::int64_t cy = cellIndex(p.y, range_);
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      // The neighbor cell key comes straight from the integer cell
      // coordinates — synthesizing a float cell-center and re-flooring it
      // would round-trip through doubles and can land in the wrong cell
      // right at a cell boundary. A free slot's list is empty.
      for (NodeId id = cells_[slotOf(packKey(cx + dx, cy + dy))].head;
           id != kInvalidNode; id = next_[id]) {
        if (inRange(pos_[id], p, range_) && visit(id)) return true;
      }
    }
  }
  return false;
}

bool UnitDiskIndex::hasNeighbor(const Point2D& p) const {
  return visitInRange(p, [](NodeId) { return true; });
}

void UnitDiskIndex::queryNeighbors(const Point2D& p,
                                   std::vector<NodeId>& out) const {
  out.clear();
  visitInRange(p, [&out](NodeId id) {
    out.push_back(id);
    return false;
  });
  std::sort(out.begin(), out.end());
}

std::vector<NodeId> UnitDiskIndex::queryNeighbors(const Point2D& p) const {
  std::vector<NodeId> out;
  queryNeighbors(p, out);
  return out;
}

void UnitDiskIndex::link(NodeId id, CellKey cell) {
  std::size_t slot = slotOf(cell);
  if (cells_[slot].key == kEmptyKey) {
    if (2 * (usedCells_ + 1) > cells_.size()) {
      grow();
      slot = slotOf(cell);
    }
    cells_[slot].key = cell;
    ++usedCells_;
  }
  next_[id] = cells_[slot].head;
  cells_[slot].head = id;
}

void UnitDiskIndex::unlink(NodeId id, CellKey cell) {
  NodeId* at = &cells_[slotOf(cell)].head;
  while (*at != id) at = &next_[*at];
  *at = next_[id];
}

void UnitDiskIndex::grow() {
  const std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.size() * 2, Cell{kEmptyKey, kInvalidNode});
  --shift_;
  usedCells_ = 0;
  for (const Cell& c : old) {
    if (c.head == kInvalidNode) continue;  // free, or emptied by removals
    cells_[slotOf(c.key)] = c;
    ++usedCells_;
  }
}

void UnitDiskIndex::insert(NodeId id, const Point2D& p) {
  DSN_REQUIRE(!contains(id), "UnitDiskIndex::insert: duplicate id");
  DSN_REQUIRE(id != kInvalidNode, "UnitDiskIndex::insert: invalid id");
  const CellKey cell = cellOf(p);
  if (id >= pos_.size()) {
    pos_.resize(id + 1);
    present_.resize(id + 1, 0);
    next_.resize(id + 1, kInvalidNode);
  }
  pos_[id] = p;
  present_[id] = 1;
  ++size_;
  link(id, cell);
}

void UnitDiskIndex::remove(NodeId id) {
  if (!contains(id)) refuseUnknownId("UnitDiskIndex::remove: unknown id");
  unlink(id, cellOf(pos_[id]));
  present_[id] = 0;
  --size_;
}

void UnitDiskIndex::updatePosition(NodeId id, const Point2D& p) {
  if (!contains(id))
    refuseUnknownId("UnitDiskIndex::updatePosition: unknown id");
  const CellKey oldCell = cellOf(pos_[id]);
  const CellKey newCell = cellOf(p);
  if (oldCell != newCell) {
    unlink(id, oldCell);
    link(id, newCell);
  }
  pos_[id] = p;
}

const Point2D& UnitDiskIndex::position(NodeId id) const {
  if (!contains(id)) refuseUnknownId("UnitDiskIndex::position: unknown id");
  return pos_[id];
}

}  // namespace dsn
