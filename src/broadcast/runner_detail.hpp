// Internal helpers shared by the protocol runners.
#pragma once

#include <vector>

#include "broadcast/run_result.hpp"
#include "radio/simulator.hpp"
#include "util/types.hpp"

namespace dsn::detail {

/// Applies the scheduling knobs of `options` to a SimConfig. The
/// resolve-scratch lease, when set, must outlive the simulator run.
inline void applyScheduling(SimConfig& cfg, const ProtocolOptions& options) {
  cfg.scheduling = options.scheduling;
  cfg.resolveScratch = options.resolveScratch;
}

/// Installs the failure plan of `options` into the simulator.
inline void applyFailures(RadioSimulator& sim,
                          const ProtocolOptions& options) {
  sim.failures() = FailureModel(options.failureSeed);
  sim.failures().setDropProbability(options.dropProbability);
  if (options.burst.active()) sim.failures().setBurstModel(options.burst);
  for (const JamZone& z : options.jamZones) sim.failures().addJamZone(z);
  if (!options.jamZones.empty() && !options.nodePositions.empty())
    sim.failures().setPositions(options.nodePositions);
  for (const auto& [node, round] : options.deaths)
    sim.failures().killAt(node, round);
}

/// Fills delivery/energy fields of `run` from the finished simulator.
/// `intended` = node ids that were supposed to receive; endpoints indexed
/// by node id (nullptr where the node has no endpoint).
inline void collectDeliveryStats(
    const RadioSimulator& sim, const std::vector<NodeId>& intended,
    const std::vector<BroadcastEndpoint*>& endpoints, BroadcastRun& run) {
  run.intended = intended.size();
  run.delivered = 0;
  run.lastDeliveryRound = -1;
  for (NodeId v : intended) {
    const BroadcastEndpoint* e = endpoints[v];
    if (e && e->hasPayload()) {
      ++run.delivered;
      run.lastDeliveryRound =
          std::max(run.lastDeliveryRound, e->payloadRound());
    }
  }
  run.maxAwakeRounds = sim.energy().maxAwakeRounds();
  run.meanAwakeRounds = sim.energy().meanAwakeRounds();
  run.transmissions = run.sim.totalTransmissions;
  run.collisions = run.sim.totalCollisions;

  if (sim.trace().enabled()) run.trace = sim.trace();

  run.deliveryRound.assign(endpoints.size(), -1);
  run.listenRounds.assign(endpoints.size(), 0);
  run.transmitRounds.assign(endpoints.size(), 0);
  for (NodeId v = 0; v < endpoints.size(); ++v) {
    if (endpoints[v] && endpoints[v]->hasPayload())
      run.deliveryRound[v] = endpoints[v]->payloadRound();
    if (v < sim.energy().nodeCount()) {
      run.listenRounds[v] =
          static_cast<std::uint32_t>(sim.energy().node(v).listenRounds);
      run.transmitRounds[v] =
          static_cast<std::uint32_t>(sim.energy().node(v).transmitRounds);
    }
  }
}

}  // namespace dsn::detail
