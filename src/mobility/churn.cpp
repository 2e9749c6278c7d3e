#include "mobility/churn.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dsn::mobility {

ChurnEngine::ChurnEngine(SensorNetwork& net, MobilityModel* model,
                         ChurnConfig cfg)
    : net_(net), model_(model), cfg_(cfg), rng_(cfg.seed) {
  // Until the first real rebuild, estimate its cost by the structure's
  // own construction cost (costs() accumulates from the initial build).
  rebuildEstimate_ = std::max<double>(
      1.0, static_cast<double>(net_.clusterNet().costs().total()));
}

std::size_t ChurnEngine::sampleCount(double rate) {
  if (rate <= 0.0) return 0;
  const double whole = std::floor(rate);
  std::size_t n = static_cast<std::size_t>(whole);
  if (rng_.chance(rate - whole)) ++n;
  return n;
}

NodeId ChurnEngine::pickNetNode() {
  const auto nodes = net_.clusterNet().netNodes();
  if (nodes.empty()) return kInvalidNode;
  return nodes[rng_.pickIndex(nodes)];
}

ChurnTick ChurnEngine::tick(Round now) {
  ChurnTick t;
  ++totals_.ticks;
  const std::int64_t costBefore = net_.clusterNet().costs().total();
  bool structural = false;

  // 1. Motion: every model update is one incremental withdraw + re-join.
  scratch_.clear();
  if (model_ != nullptr) model_->updates(now, scratch_);
  for (const MobilityUpdate& u : scratch_) {
    if (!net_.graph().isAlive(u.node)) continue;
    net_.moveSensor(u.node, u.to);
    ++t.moves;
    t.disturbed.push_back(u.node);
    structural = true;
  }

  // 2. Voluntary departures: the cooperative node-move-out protocol.
  const std::size_t leaves = sampleCount(cfg_.leaveRate);
  for (std::size_t i = 0; i < leaves; ++i) {
    if (net_.size() <= 2) break;
    const NodeId v = pickNetNode();
    if (v == kInvalidNode || !net_.graph().isAlive(v)) continue;
    if (model_ != nullptr) model_->forget(v);
    net_.removeSensor(v);
    ++t.leaves;
    t.disturbed.push_back(v);
    structural = true;
  }

  // 3. Crashes: uncooperative deaths, repaired below (batched per tick).
  const std::size_t crashes = sampleCount(cfg_.crashRate);
  for (std::size_t i = 0; i < crashes; ++i) {
    if (net_.size() <= 2) break;
    const NodeId v = pickNetNode();
    if (v == kInvalidNode || !net_.graph().isAlive(v)) continue;
    if (model_ != nullptr) model_->forget(v);
    net_.crashSensor(v);
    ++t.crashes;
    t.disturbed.push_back(v);
    structural = true;
  }

  // 4. Fresh deployments: node-move-in at a random field position.
  const std::size_t joins = sampleCount(cfg_.joinRate);
  for (std::size_t i = 0; i < joins; ++i) {
    const Point2D p{rng_.uniformReal(0.0, cfg_.field.width),
                    rng_.uniformReal(0.0, cfg_.field.height)};
    net_.addSensor(p);
    ++t.joins;
    structural = true;
  }

  // 5. Repair per policy. The incremental debt this tick contributed is
  // metered before any rebuild resets the cost baseline.
  if (structural) {
    repair(t);
    const std::int64_t delta =
        net_.clusterNet().costs().total() - costBefore;
    if (!t.rebuilt) {
      totals_.incrementalCost += delta;
      debt_ += static_cast<double>(delta);
    }

    const bool wantRebuild =
        cfg_.policy == RepairPolicy::kRebuild ||
        (cfg_.policy == RepairPolicy::kAdaptive &&
         debt_ > cfg_.debtFactor * rebuildEstimate_);
    if (wantRebuild && !t.rebuilt) {
      const RoundCost rc = net_.rebuildStructure();
      t.rebuilt = true;
      ++totals_.rebuilds;
      totals_.rebuildCost += rc.total();
      rebuildEstimate_ = std::max(1.0, static_cast<double>(rc.total()));
      debt_ = 0.0;
    }
    validateStructure(t);
  }

  totals_.moves += t.moves;
  totals_.leaves += t.leaves;
  totals_.crashes += t.crashes;
  totals_.joins += t.joins;
  bumpCounters(t);
  return t;
}

void ChurnEngine::repair(ChurnTick& t) {
  if (!net_.hasStaleStructure()) return;
  net_.repairAfterFailures();
  t.repaired = true;
  ++totals_.repairs;
}

void ChurnEngine::validateStructure(ChurnTick& t) {
  ++totals_.validations;
  if (!net_.validate().ok()) {
    t.validated = false;
    ++totals_.validationFailures;
  }
}

void ChurnEngine::bumpCounters(const ChurnTick& t) {
  if (!obs::enabled()) return;
  auto& m = obs::globalMetrics();
  if (t.moves != 0) m.counter("cluster.churn.moves").increment(t.moves);
  if (t.crashes != 0) m.counter("cluster.churn.crashes").increment(t.crashes);
  if (t.joins != 0) m.counter("cluster.churn.joins").increment(t.joins);
  if (t.leaves != 0) m.counter("cluster.churn.leaves").increment(t.leaves);
  if (t.repaired) m.counter("cluster.churn.repairs").increment();
  // cluster.churn.rebuilds is metered inside rebuildStructure().
}

}  // namespace dsn::mobility
