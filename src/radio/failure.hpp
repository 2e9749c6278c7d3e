// Failure injection for robustness experiments (paper §3.3 "Robustness").
//
// Four orthogonal mechanisms:
//   * scheduled death — a node stops participating entirely from a given
//     round (battery exhaustion);
//   * relay-drop probability — each transmission independently fails to
//     go on air with probability p (transient radio fault). The node
//     still spends the energy (it believes it transmitted);
//   * Gilbert–Elliott bursty loss — a two-state Markov channel (good /
//     burst) advanced once per transmission attempt, with a per-state
//     drop probability, so losses cluster the way real interference does
//     instead of arriving i.i.d.;
//   * spatial jamming — disk-shaped zones inside which every transmission
//     (and every reception) is lost for a round interval. Requires node
//     positions to be supplied via setPositions().
#pragma once

#include <limits>
#include <unordered_map>
#include <vector>

#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dsn {

/// Gilbert–Elliott two-state loss channel. Inactive (pure i.i.d. mode)
/// while `pEnterBurst` is 0.
struct BurstLossParams {
  /// Good -> burst transition probability per transmission attempt.
  double pEnterBurst = 0.0;
  /// Burst -> good transition probability per transmission attempt.
  double pExitBurst = 1.0;
  /// Drop probability while in the good state.
  double dropGood = 0.0;
  /// Drop probability while in the burst state.
  double dropBurst = 1.0;

  bool active() const { return pEnterBurst > 0.0; }
};

/// Disk-shaped jamming zone active over the round interval
/// [fromRound, toRound).
struct JamZone {
  Point2D center{};
  double radius = 0.0;
  Round fromRound = 0;
  Round toRound = std::numeric_limits<Round>::max();

  bool activeAt(Round r) const { return r >= fromRound && r < toRound; }
  bool covers(const Point2D& p) const {
    return squaredDistance(center, p) <= radius * radius;
  }
};

/// Deterministic-given-seed failure model shared by a simulation run.
class FailureModel {
 public:
  FailureModel() = default;
  explicit FailureModel(std::uint64_t seed) : rng_(seed) {}

  /// Node `v` is dead from round `r` (inclusive) onward. Repeated calls
  /// keep the earliest scheduled round.
  void killAt(NodeId v, Round r);

  /// Every transmission is silently dropped with probability `p` in
  /// [0, 1].
  void setDropProbability(double p);
  double dropProbability() const { return dropProb_; }

  /// Installs a Gilbert–Elliott bursty-loss channel. While active it
  /// replaces the i.i.d. drop coin entirely.
  void setBurstModel(const BurstLossParams& params);
  const BurstLossParams& burstModel() const { return burst_; }

  /// Registers a jamming zone. Jamming only takes effect once node
  /// positions are known (setPositions).
  void addJamZone(const JamZone& zone);
  const std::vector<JamZone>& jamZones() const { return zones_; }

  /// Supplies node positions (indexed by node id) for spatial jamming.
  /// Ids at or beyond the vector are treated as unjammable.
  void setPositions(std::vector<Point2D> positions);

  bool isDead(NodeId v, Round r) const;

  /// Node `v` sits inside an active jamming zone in round `r`.
  bool isJammed(NodeId v, Round r) const;

  /// Draws the transient-fault coin for one transmission. Stateful (each
  /// call advances the RNG — and the burst chain when one is configured);
  /// call exactly once per transmission attempt.
  bool dropsTransmission();

  bool hasScheduledDeaths() const { return !deathRound_.empty(); }

  /// Scheduled death rounds (earliest per node). The active-set simulator
  /// turns these into a sorted event list so node deaths update its
  /// pending-completion count without per-round scans.
  const std::unordered_map<NodeId, Round>& deathSchedule() const {
    return deathRound_;
  }

  /// True when dropsTransmission() can ever return true — the simulator
  /// only spends RNG draws when this holds, keeping failure-free runs
  /// bit-identical to the pre-fault-injection behaviour.
  bool hasTransientLoss() const {
    return dropProb_ > 0.0 || burst_.active();
  }

  /// True when the model is currently in the burst state (exposed for
  /// tests of the Gilbert–Elliott chain).
  bool inBurst() const { return inBurst_; }

 private:
  std::unordered_map<NodeId, Round> deathRound_;
  double dropProb_ = 0.0;
  BurstLossParams burst_;
  bool inBurst_ = false;
  std::vector<JamZone> zones_;
  std::vector<Point2D> positions_;
  bool hasPositions_ = false;
  Rng rng_{0xFA11FA11u};
};

}  // namespace dsn
