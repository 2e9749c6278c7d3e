// Battery management: the paper's motivating lifecycle, automated.
//
// "A power-trained sensor node withdraws its connection from its network
// when its battery voltage is low and comes back to the network when it
// is recharged." (paper Section 1.)
//
// BatteryManager tracks per-node charge, drains it from the measured
// radio usage of each protocol run (per-node listen/transmit rounds in
// BroadcastRun) plus a per-epoch idle cost, withdraws nodes whose charge
// falls under the threshold, recharges them while they rest, and
// re-joins them once recovered. One `tick()` per epoch.
#pragma once

#include <unordered_map>
#include <vector>

#include "core/sensor_network.hpp"
#include "radio/energy.hpp"

namespace dsn {

struct BatteryConfig {
  double capacity = 100.0;
  /// Withdraw when charge falls to/below this level.
  double withdrawThreshold = 15.0;
  /// Rejoin when a resting node recovers to/above this level.
  double rejoinThreshold = 80.0;
  /// Charge gained per tick while resting.
  double rechargePerTick = 25.0;
  /// Charge lost per tick just for being deployed and in the net.
  double idleDrainPerTick = 0.2;
};

struct BatteryTickReport {
  std::vector<NodeId> withdrawn;
  std::vector<NodeId> rejoined;
  /// Nodes that were orphaned by someone else's withdrawal and were
  /// brought back into the net this tick.
  std::vector<NodeId> orphansRecovered;
  std::size_t resting = 0;
  double minCharge = 0.0;
  double meanCharge = 0.0;
};

class BatteryManager {
 public:
  /// Registers every node currently in the net at full capacity. The
  /// network must outlive the manager.
  BatteryManager(SensorNetwork& net, BatteryConfig config = {});

  /// Drains charge according to a run's measured per-node radio usage.
  void drainFromRun(const BroadcastRun& run);

  /// Manual drain (e.g. sensing or CPU load outside the radio model).
  void drain(NodeId v, double amount);

  /// Registers a newly deployed node at full charge.
  void adopt(NodeId v);
  /// Drops a node that left the deployment for good.
  void forget(NodeId v);

  /// One epoch: idle drain for active nodes, recharge for resting ones,
  /// withdraw the exhausted, rejoin the recovered.
  BatteryTickReport tick();

  double charge(NodeId v) const;
  bool isResting(NodeId v) const;
  std::size_t managedCount() const { return charge_.size(); }

 private:
  SensorNetwork& net_;
  BatteryConfig cfg_;
  std::unordered_map<NodeId, double> charge_;
  std::unordered_map<NodeId, bool> resting_;
};

}  // namespace dsn
