#include "core/battery.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dsn {

namespace {

/// Per-round radio costs the battery drains by.
constexpr EnergyModel kRadioCosts{};

}  // namespace

BatteryManager::BatteryManager(SensorNetwork& net, BatteryConfig config)
    : net_(net), cfg_(config) {
  DSN_REQUIRE(cfg_.capacity > 0, "battery capacity must be positive");
  DSN_REQUIRE(cfg_.withdrawThreshold < cfg_.rejoinThreshold,
              "withdraw threshold must be below the rejoin threshold");
  for (NodeId v : net.clusterNet().netNodes()) {
    charge_[v] = cfg_.capacity;
    resting_[v] = false;
  }
}

void BatteryManager::drainFromRun(const BroadcastRun& run) {
  for (auto& [v, charge] : charge_) {
    if (resting_[v]) continue;
    if (v < run.listenRounds.size()) {
      charge -= kRadioCosts.listenCost *
                    static_cast<double>(run.listenRounds[v]) +
                kRadioCosts.transmitCost *
                    static_cast<double>(run.transmitRounds[v]);
    }
    charge = std::max(charge, 0.0);
  }
}

void BatteryManager::drain(NodeId v, double amount) {
  const auto it = charge_.find(v);
  DSN_REQUIRE(it != charge_.end(), "drain: unmanaged node");
  DSN_REQUIRE(amount >= 0, "drain amount must be non-negative");
  it->second = std::max(it->second - amount, 0.0);
}

void BatteryManager::adopt(NodeId v) {
  charge_[v] = cfg_.capacity;
  resting_[v] = false;
}

void BatteryManager::forget(NodeId v) {
  charge_.erase(v);
  resting_.erase(v);
}

BatteryTickReport BatteryManager::tick() {
  BatteryTickReport report;

  for (auto& [v, charge] : charge_) {
    if (resting_[v]) {
      charge = std::min(charge + cfg_.rechargePerTick, cfg_.capacity);
    } else {
      charge = std::max(charge - cfg_.idleDrainPerTick, 0.0);
    }
  }

  // Withdraw exhausted active nodes (keep the net non-trivial).
  for (auto& [v, charge] : charge_) {
    if (resting_[v] || charge > cfg_.withdrawThreshold) continue;
    if (!net_.clusterNet().contains(v)) continue;
    if (net_.clusterNet().netSize() <= 3) break;
    net_.withdrawSensor(v);
    resting_[v] = true;
    report.withdrawn.push_back(v);
  }

  // Rejoin recovered resting nodes.
  for (auto& [v, charge] : charge_) {
    if (!resting_[v] || charge < cfg_.rejoinThreshold) continue;
    if (net_.rejoinSensor(v)) {
      resting_[v] = false;
      report.rejoined.push_back(v);
    }
    // else: still unreachable; keep resting and try next tick.
  }

  // Orphan recovery: a withdrawal can disconnect bystanders from the
  // net; they are active (not resting) but outside — pull them back in
  // as soon as they can reach the structure again.
  for (auto& [v, charge] : charge_) {
    if (resting_[v] || net_.clusterNet().contains(v)) continue;
    if (!net_.graph().isAlive(v)) continue;
    if (net_.rejoinSensor(v)) report.orphansRecovered.push_back(v);
  }

  double sum = 0.0;
  report.minCharge = charge_.empty() ? 0.0 : cfg_.capacity;
  for (const auto& [v, charge] : charge_) {
    sum += charge;
    report.minCharge = std::min(report.minCharge, charge);
    if (resting_[v]) ++report.resting;
  }
  report.meanCharge =
      charge_.empty() ? 0.0 : sum / static_cast<double>(charge_.size());
  return report;
}

double BatteryManager::charge(NodeId v) const {
  const auto it = charge_.find(v);
  DSN_REQUIRE(it != charge_.end(), "charge: unmanaged node");
  return it->second;
}

bool BatteryManager::isResting(NodeId v) const {
  const auto it = resting_.find(v);
  DSN_REQUIRE(it != resting_.end(), "isResting: unmanaged node");
  return it->second;
}

}  // namespace dsn
