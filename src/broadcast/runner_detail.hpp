// Internal helpers shared by the protocol runners.
#pragma once

#include <memory>
#include <vector>

#include "broadcast/run_result.hpp"
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

/// The listen budget of every flat rival: options.maxRounds, or when
/// that is 0, one contention window plus one round per live node, + 16.
Round flatListenBudget(const Graph& g, int contentionWindow,
                       const ProtocolOptions& options);

/// The run body of every flat rival: runs `swarm` on one channel over
/// the nodes reachable from `source`, all of them intended receivers,
/// with a round budget of maxListen + 4.
BroadcastRun runFlatRival(const Graph& g, NodeId source, Round maxListen,
                          std::unique_ptr<FlatSwarm> swarm,
                          const ProtocolOptions& options);

}  // namespace dsn::detail
