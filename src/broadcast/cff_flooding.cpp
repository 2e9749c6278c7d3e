#include "broadcast/cff_flooding.hpp"

#include <memory>
#include <utility>

#include "broadcast/cff_swarm.hpp"

namespace dsn {

SlottedWave admitCffWave(const ClusterNet& net, NodeId source,
                         std::uint64_t payload, Channel channels) {
  const detail::SourcePath path = detail::sourcePath(net, source);
  const Round floodStart = path.hops();
  const TimeSlot window = net.rootMaxUSlot();
  const TdmMap tdm(window == 0 ? 1 : window, channels);

  SlottedWave wave;
  wave.schedule =
      floodStart + static_cast<Round>(net.height() + 1) * tdm.windowLength();

  CffSwarmConfig sc;
  sc.window = window;
  sc.channels = channels;
  sc.floodStart = floodStart;
  sc.payload = payload;
  const Graph& g = net.graph();
  auto swarm = std::make_unique<CffSwarm>(sc, g.size());

  // One pass over the net's records, in node order, fills the swarm.
  wave.members.reserve(net.netSize());
  for (NodeId v = 0; v < g.size(); ++v) {
    // A stale structure (crashes not yet repaired) may reference dead
    // nodes; they neither act nor count as intended receivers.
    if (!net.contains(v) || !g.isAlive(v)) continue;
    const NodeKnowledge& k = net.knowledge(v);
    wave.members.push_back(v);
    const int pathIndex = path.indexOf[v];
    swarm->addMember(
        v, k.depth,
        isBackboneStatus(k.status) ? k.slot(SlotFamily::kU) : kNoSlot,
        pathIndex, path.nextAfter(pathIndex), v == source);
  }
  wave.intended = wave.members;
  wave.swarm = std::move(swarm);
  return wave;
}

BroadcastRun runCffBroadcast(const ClusterNet& net, NodeId source,
                             std::uint64_t payload,
                             const ProtocolOptions& options) {
  // One structure-of-arrays swarm drives every member (DESIGN.md §14);
  // testkit's per-object CffNodeProtocol is its differential oracle.
  return runSlottedWave(
      net, admitCffWave(net, source, payload, options.channels), options);
}

}  // namespace dsn
