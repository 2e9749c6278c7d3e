// The churn engine: sustained motion + membership churn against a live
// SensorNetwork (DESIGN.md §15).
//
// Each tick the engine (1) applies the mobility model's position
// updates through moveSensor — incremental withdraw + re-join per move —
// and (2) samples crash / join / leave events from its own RNG, then
// repairs the structure per the configured policy:
//
//   kIncremental  every event is absorbed by the paper's Section-5
//                 procedures (move-out/move-in) plus the crash-recovery
//                 pass; the structure is never rebuilt.
//   kRebuild      any structural event triggers a full self-
//                 reconstruction (the naive re-cluster baseline).
//   kAdaptive     incremental by default; a running "churn debt" (round
//                 cost of incremental repairs since the last rebuild) is
//                 compared against the measured cost of a full rebuild,
//                 and when debt exceeds debtFactor x rebuild-cost the
//                 engine re-clusters wholesale and resets the debt —
//                 the Gavalas-style adaptive maintenance policy.
//
// Every tick ends validator-clean: crashes are repaired inside the tick
// (batched), and the engine runs the validator to check it. The
// whole engine is a deterministic function of (config, model, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "core/sensor_network.hpp"
#include "mobility/model.hpp"
#include "util/rng.hpp"

namespace dsn::mobility {

enum class RepairPolicy : std::uint8_t {
  kIncremental,
  kRebuild,
  kAdaptive,
};

constexpr std::string_view toString(RepairPolicy p) {
  switch (p) {
    case RepairPolicy::kIncremental:
      return "incremental";
    case RepairPolicy::kRebuild:
      return "rebuild";
    case RepairPolicy::kAdaptive:
      return "adaptive";
  }
  return "?";
}

struct ChurnConfig {
  /// Expected events per tick (integer part always fires, fractional
  /// part is a Bernoulli draw).
  double crashRate = 0.0;
  double joinRate = 0.0;
  double leaveRate = 0.0;
  RepairPolicy policy = RepairPolicy::kAdaptive;
  /// kAdaptive: rebuild when debt > debtFactor * measured rebuild cost.
  double debtFactor = 1.0;
  /// Where joiners appear (should match the deployment field).
  Field field;
  std::uint64_t seed = 0xC0FFEE;
};

/// What one tick did — `disturbed` lists the node ids whose structural
/// position changed (moved, crashed, left, or was orphaned/re-homed by a
/// repair), for in-flight waves to mark displaced.
struct ChurnTick {
  std::size_t moves = 0;
  std::size_t crashes = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  bool repaired = false;
  bool rebuilt = false;
  bool validated = true;
  std::vector<NodeId> disturbed;
};

/// Campaign-lifetime aggregates.
struct ChurnTotals {
  std::size_t ticks = 0;
  std::size_t moves = 0;
  std::size_t crashes = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t repairs = 0;
  std::size_t rebuilds = 0;
  std::size_t validations = 0;
  std::size_t validationFailures = 0;
  /// Accumulated round cost of incremental maintenance vs. rebuilds —
  /// the pair tbl_mobility compares per policy.
  std::int64_t incrementalCost = 0;
  std::int64_t rebuildCost = 0;
};

class ChurnEngine {
 public:
  /// `model` may be null (pure membership churn, no motion); it is
  /// borrowed and must outlive the engine.
  ChurnEngine(SensorNetwork& net, MobilityModel* model, ChurnConfig cfg);

  /// One churn tick at round `now`. Leaves the structure validator-clean.
  ChurnTick tick(Round now);

  const ChurnTotals& totals() const { return totals_; }
  /// Outstanding adaptive debt (round cost since the last rebuild).
  double debt() const { return debt_; }

 private:
  SensorNetwork& net_;
  MobilityModel* model_;
  ChurnConfig cfg_;
  Rng rng_;
  ChurnTotals totals_;
  double debt_ = 0.0;
  /// Measured cost of a full rebuild (seeded from the live structure's
  /// construction cost estimate until the first real rebuild).
  double rebuildEstimate_ = 0.0;
  std::vector<MobilityUpdate> scratch_;

  std::size_t sampleCount(double rate);
  /// Uniformly random live net node, or kInvalidNode if none.
  NodeId pickNetNode();
  void repair(ChurnTick& t);
  void validateStructure(ChurnTick& t);
  void bumpCounters(const ChurnTick& t);
};

}  // namespace dsn::mobility
