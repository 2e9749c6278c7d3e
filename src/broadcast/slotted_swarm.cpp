#include "broadcast/slotted_swarm.hpp"

#include <algorithm>
#include <utility>

#include "broadcast/runner_detail.hpp"
#include "cluster/cnet.hpp"
#include "util/error.hpp"

namespace dsn {

namespace {

/// Fills the delivery and energy fields of `run` from the finished
/// simulator; per-node delivery comes from the swarm.
void collectWaveStats(const RadioSimulator& sim,
                      const std::vector<NodeId>& intended,
                      const SlottedSwarm& swarm, BroadcastRun& run) {
  run.intended = intended.size();
  run.delivered = 0;
  run.lastDeliveryRound = -1;
  for (NodeId v : intended) {
    if (swarm.hasPayload(v)) {
      ++run.delivered;
      run.lastDeliveryRound =
          std::max(run.lastDeliveryRound, swarm.payloadRound(v));
    }
  }
  run.maxAwakeRounds = sim.energy().maxAwakeRounds();
  run.meanAwakeRounds = sim.energy().meanAwakeRounds();
  run.transmissions = run.sim.totalTransmissions;
  run.collisions = run.sim.totalCollisions;

  if (sim.trace().enabled()) run.trace = sim.trace();

  const std::size_t n = sim.energy().nodeCount();
  run.deliveryRound.assign(n, -1);
  run.listenRounds.assign(n, 0);
  run.transmitRounds.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (swarm.hasPayload(v)) run.deliveryRound[v] = swarm.payloadRound(v);
    run.listenRounds[v] =
        static_cast<std::uint32_t>(sim.energy().node(v).listenRounds);
    run.transmitRounds[v] =
        static_cast<std::uint32_t>(sim.energy().node(v).transmitRounds);
  }
}

}  // namespace

SlottedSwarm::SlottedSwarm(std::size_t nodeCount)
    : flags_(nodeCount, 0),
      payload_(nodeCount, 0),
      payloadRound_(nodeCount, -1) {}

void SlottedSwarm::addHolder(NodeId v, bool isSource,
                             std::uint64_t payload) {
  DSN_REQUIRE(v < flags_.size(), "addMember: node id out of range");
  flags_[v] = isSource ? kHasPayload : 0;
  payload_[v] = isSource ? payload : 0;
  payloadRound_[v] = isSource ? 0 : -1;
}

void SlottedSwarm::onReceive(NodeId v, const Message& m, Round r, Channel) {
  if (m.kind != MsgKind::kData && m.kind != MsgKind::kControl) return;
  if (!(flags_[v] & kHasPayload)) {
    flags_[v] |= kHasPayload;
    payloadRound_[v] = r;
    payload_[v] = m.payload;
  }
}

SimConfig slottedSimConfig(Round schedule, const ProtocolOptions& options) {
  SimConfig cfg;
  cfg.channelCount = options.channels;
  cfg.maxRounds = options.maxRounds > 0 ? options.maxRounds : schedule + 4;
  cfg.traceCapacity = options.traceCapacity;
  detail::applyScheduling(cfg, options);
  return cfg;
}

BroadcastRun runSlottedWave(const ClusterNet& net, SlottedWave wave,
                            const ProtocolOptions& options) {
  RadioSimulator sim(net.graph(), slottedSimConfig(wave.schedule, options));
  detail::applyFailures(sim, options);
  const SlottedSwarm& swarm = *wave.swarm;
  sim.setSwarm(std::move(wave.swarm), wave.members);

  BroadcastRun run;
  run.scheduleLength = wave.schedule;
  run.sim = sim.run();
  collectWaveStats(sim, wave.intended, swarm, run);
  return run;
}

namespace detail {

SourcePath sourcePath(const ClusterNet& net, NodeId source) {
  DSN_REQUIRE(net.contains(source), "broadcast source must be in the net");
  SourcePath path;
  for (NodeId v = source; v != kInvalidNode; v = net.parent(v))
    path.nodes.push_back(v);
  // Path membership as a flat lookup instead of an O(|path|) scan per
  // node.
  path.indexOf.assign(net.graph().size(), -1);
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i)
    path.indexOf[path.nodes[i]] = static_cast<int>(i);
  return path;
}

}  // namespace detail

}  // namespace dsn
