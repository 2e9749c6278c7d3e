#include "broadcast/slotted_swarm.hpp"

#include <utility>

#include "broadcast/runner_detail.hpp"
#include "cluster/cnet.hpp"
#include "util/error.hpp"

namespace dsn {

void SlottedSwarm::onReceive(NodeId v, const Message& m, Round r, Channel) {
  if (m.kind != MsgKind::kData && m.kind != MsgKind::kControl) return;
  takePayload(v, m.payload, r);
}

SimConfig slottedSimConfig(Round schedule, const ProtocolOptions& options) {
  return detail::simConfig(
      options.channels,
      options.maxRounds > 0 ? options.maxRounds : schedule + 4, options);
}

BroadcastRun runSlottedWave(const ClusterNet& net, SlottedWave wave,
                            const ProtocolOptions& options) {
  return detail::runPayloadSwarm(
      net.graph(), slottedSimConfig(wave.schedule, options),
      std::move(wave.swarm), wave.members, wave.intended, wave.schedule,
      options);
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
