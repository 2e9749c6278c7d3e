#include "graph/deploy.hpp"

#include <cmath>
#include <numbers>

#include "graph/unit_disk.hpp"
#include "util/error.hpp"

namespace dsn {

Field Field::squareUnits(int units, double unitMeters) {
  DSN_REQUIRE(units > 0, "field units must be positive");
  DSN_REQUIRE(unitMeters > 0.0, "unit size must be positive");
  const double side = static_cast<double>(units) * unitMeters;
  return Field{side, side};
}

namespace {

void validate(const DeployConfig& cfg) {
  DSN_REQUIRE(cfg.field.width > 0.0 && cfg.field.height > 0.0,
              "deployment field must have positive area");
  DSN_REQUIRE(cfg.range > 0.0, "communication range must be positive");
}

Point2D uniformPoint(const Field& f, Rng& rng) {
  return Point2D{rng.uniformReal(0.0, f.width),
                 rng.uniformReal(0.0, f.height)};
}

bool insideField(const Field& f, const Point2D& p) {
  return p.x >= 0.0 && p.x <= f.width && p.y >= 0.0 && p.y <= f.height;
}

}  // namespace

std::vector<Point2D> deployUniform(const DeployConfig& cfg, Rng& rng) {
  validate(cfg);
  std::vector<Point2D> pts;
  pts.reserve(cfg.nodeCount);
  for (std::size_t i = 0; i < cfg.nodeCount; ++i)
    pts.push_back(uniformPoint(cfg.field, rng));
  return pts;
}

std::vector<Point2D> deployIncrementalAttach(const DeployConfig& cfg,
                                             Rng& rng, int maxRejects) {
  validate(cfg);
  DSN_REQUIRE(maxRejects >= 0, "maxRejects must be non-negative");
  std::vector<Point2D> pts;
  if (cfg.nodeCount == 0) return pts;
  pts.reserve(cfg.nodeCount);

  UnitDiskIndex index(cfg.range);
  pts.push_back(uniformPoint(cfg.field, rng));
  index.insert(0, pts[0]);

  while (pts.size() < cfg.nodeCount) {
    Point2D candidate{};
    bool placed = false;
    for (int attempt = 0; attempt < maxRejects; ++attempt) {
      candidate = uniformPoint(cfg.field, rng);
      if (index.hasNeighbor(candidate)) {
        placed = true;
        break;
      }
    }
    if (!placed) {
      // Fallback: sample around a random placed node, uniform in the disk
      // of radius `range` (uniform-in-area via sqrt radius), rejecting
      // points that fall outside the field.
      for (;;) {
        const auto anchorIdx = rng.pickIndex(pts);
        const double theta =
            rng.uniformReal(0.0, 2.0 * std::numbers::pi_v<double>);
        const double radius = cfg.range * std::sqrt(rng.uniformReal());
        candidate = Point2D{pts[anchorIdx].x + radius * std::cos(theta),
                            pts[anchorIdx].y + radius * std::sin(theta)};
        if (insideField(cfg.field, candidate)) break;
      }
    }
    const auto id = static_cast<NodeId>(pts.size());
    pts.push_back(candidate);
    index.insert(id, candidate);
  }
  return pts;
}

std::vector<Point2D> deployGrid(const DeployConfig& cfg) {
  validate(cfg);
  std::vector<Point2D> pts;
  if (cfg.nodeCount == 0) return pts;
  pts.reserve(cfg.nodeCount);

  // Choose a column count that fits the field while keeping horizontal
  // spacing within range; spacing is 90% of range so lattice neighbors
  // connect strictly.
  const double spacing = 0.9 * cfg.range;
  auto cols = static_cast<std::size_t>(cfg.field.width / spacing) + 1;
  if (cols == 0) cols = 1;
  for (std::size_t i = 0; i < cfg.nodeCount; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    pts.push_back(Point2D{static_cast<double>(c) * spacing,
                          static_cast<double>(r) * spacing});
  }
  return pts;
}

std::vector<Point2D> deployLine(std::size_t nodeCount, double range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
  std::vector<Point2D> pts;
  pts.reserve(nodeCount);
  const double spacing = 0.9 * range;
  for (std::size_t i = 0; i < nodeCount; ++i)
    pts.push_back(Point2D{static_cast<double>(i) * spacing, 0.0});
  return pts;
}

std::vector<Point2D> deployStar(std::size_t nodeCount, double range) {
  DSN_REQUIRE(range > 0.0, "communication range must be positive");
  std::vector<Point2D> pts;
  if (nodeCount == 0) return pts;
  pts.reserve(nodeCount);
  pts.push_back(Point2D{0.0, 0.0});
  const double radius = 0.9 * range;
  const std::size_t leaves = nodeCount - 1;
  for (std::size_t i = 0; i < leaves; ++i) {
    const double theta = 2.0 * std::numbers::pi_v<double> *
                         static_cast<double>(i) /
                         static_cast<double>(leaves);
    pts.push_back(
        Point2D{radius * std::cos(theta), radius * std::sin(theta)});
  }
  return pts;
}

}  // namespace dsn
