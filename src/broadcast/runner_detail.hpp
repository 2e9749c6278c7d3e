// Internal helpers shared by the protocol runners.
#pragma once

#include <memory>
#include <vector>

#include "broadcast/run_result.hpp"
#include "broadcast/runner.hpp"
#include "radio/simulator.hpp"
#include "util/types.hpp"

namespace dsn::detail {

/// The simulator configuration of a run on `channels` channels with a
/// budget of `maxRounds`; trace capacity, scheduling and the
/// resolve-scratch lease (which must outlive the run) come from
/// `options`.
inline SimConfig simConfig(Channel channels, Round maxRounds,
                           const ProtocolOptions& options) {
  SimConfig cfg;
  cfg.channelCount = channels;
  cfg.maxRounds = maxRounds;
  cfg.traceCapacity = options.traceCapacity;
  cfg.scheduling = options.scheduling;
  cfg.resolveScratch = options.resolveScratch;
  return cfg;
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

/// The one run body of every broadcast: runs `swarm` over `members` on a
/// fresh simulator over `g` with the failure plan of `options`, and
/// collects the delivery and energy fields of the result from the swarm
/// and the simulator. `intended` lists the members that were supposed to
/// receive; `scheduleLength` is the protocol's nominal schedule span.
BroadcastRun runPayloadSwarm(const Graph& g, const SimConfig& config,
                             std::unique_ptr<PayloadSwarm> swarm,
                             const std::vector<NodeId>& members,
                             const std::vector<NodeId>& intended,
                             Round scheduleLength,
                             const ProtocolOptions& options);

/// What the flat-graph rivals (flooding, gossip, suppression, RLNC)
/// share: with no schedule knowledge to sleep on, an unserved node
/// listens every round until a listen budget runs out.
class FlatSwarm : public PayloadSwarm {
 protected:
  FlatSwarm(std::size_t nodeCount, Round maxListen)
      : PayloadSwarm(nodeCount), maxListen_(maxListen) {}

  /// An unserved node's action in round `r`.
  Action listenWithinBudget(Round r) const {
    return r >= maxListen_ ? Action::sleep() : Action::listen();
  }
  /// An unserved node's next wake after `now`: every round until the
  /// budget runs out, then never (it can no longer receive anything).
  Round nextWakeWithinBudget(Round now) const {
    return now + 1 < maxListen_ ? now + 1 : kNoWake;
  }

  Round maxListen_;
};

/// The flat rivals' swarms. Each reads its knobs from `options.arena`,
/// checks them, and gives an unserved node the listen budget
/// `maxListen`. runRivalBroadcast, which has checked the live source and
/// the contention window, runs them.
/// Flooding, gossip and adaptive gossip (gossip.cpp).
std::unique_ptr<FlatSwarm> makeRelaySwarm(BroadcastScheme scheme,
                                          const Graph& g, NodeId source,
                                          std::uint64_t payload,
                                          Round maxListen,
                                          const ProtocolOptions& options);
/// Counter- and distance-based suppression (suppression.cpp).
std::unique_ptr<FlatSwarm> makeSuppressionSwarm(
    BroadcastScheme scheme, const Graph& g, NodeId source,
    std::uint64_t payload, Round maxListen, const ProtocolOptions& options);
/// Random linear network coding (rlnc.cpp).
std::unique_ptr<FlatSwarm> makeRlncSwarm(const Graph& g, NodeId source,
                                         std::uint64_t payload,
                                         Round maxListen,
                                         const ProtocolOptions& options);

}  // namespace dsn::detail
