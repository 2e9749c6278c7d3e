#include "radio/failure.hpp"

#include <utility>

#include "util/error.hpp"

namespace dsn {

void FailureModel::killAt(NodeId v, Round r) {
  DSN_REQUIRE(r >= 0, "death round must be non-negative");
  const auto it = deathRound_.find(v);
  if (it == deathRound_.end() || it->second > r) deathRound_[v] = r;
}

void FailureModel::setDropProbability(double p) {
  DSN_REQUIRE(p >= 0.0 && p <= 1.0, "drop probability must be in [0,1]");
  dropProb_ = p;
}

void FailureModel::setBurstModel(const BurstLossParams& params) {
  DSN_REQUIRE(params.pEnterBurst >= 0.0 && params.pEnterBurst <= 1.0,
              "burst enter probability must be in [0,1]");
  DSN_REQUIRE(params.pExitBurst > 0.0 && params.pExitBurst <= 1.0,
              "burst exit probability must be in (0,1]");
  DSN_REQUIRE(params.dropGood >= 0.0 && params.dropGood <= 1.0,
              "good-state drop probability must be in [0,1]");
  DSN_REQUIRE(params.dropBurst >= 0.0 && params.dropBurst <= 1.0,
              "burst-state drop probability must be in [0,1]");
  burst_ = params;
  inBurst_ = false;
}

void FailureModel::addJamZone(const JamZone& zone) {
  DSN_REQUIRE(zone.radius > 0.0, "jam zone radius must be positive");
  DSN_REQUIRE(zone.fromRound >= 0, "jam zone start round must be non-negative");
  DSN_REQUIRE(zone.toRound > zone.fromRound,
              "jam zone interval must be non-empty");
  zones_.push_back(zone);
}

void FailureModel::setPositions(std::vector<Point2D> positions) {
  positions_ = std::move(positions);
  hasPositions_ = true;
}

bool FailureModel::isDead(NodeId v, Round r) const {
  const auto it = deathRound_.find(v);
  return it != deathRound_.end() && r >= it->second;
}

bool FailureModel::isJammed(NodeId v, Round r) const {
  if (zones_.empty() || !hasPositions_ || v >= positions_.size()) return false;
  const Point2D& p = positions_[v];
  for (const JamZone& z : zones_) {
    if (z.activeAt(r) && z.covers(p)) return true;
  }
  return false;
}

bool FailureModel::dropsTransmission() {
  if (!burst_.active()) return rng_.chance(dropProb_);
  // Gilbert–Elliott: advance the chain, then draw the per-state coin.
  // Two draws per attempt, always, so the sequence is deterministic
  // regardless of which state transitions fire.
  const bool flip = rng_.chance(inBurst_ ? burst_.pExitBurst : burst_.pEnterBurst);
  if (flip) inBurst_ = !inBurst_;
  return rng_.chance(inBurst_ ? burst_.dropBurst : burst_.dropGood);
}

}  // namespace dsn
