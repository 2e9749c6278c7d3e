#include "broadcast/cff_flooding.hpp"

#include <memory>
#include <utility>

#include "broadcast/cff_swarm.hpp"
#include "cluster/soa.hpp"

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

  // Flat schedule columns: one pass over the knowledge table instead of a
  // per-field accessor chase for every member (matters at n >= 10^5).
  const ClusterScheduleView sched = ClusterScheduleView::build(net);
  wave.members.reserve(sched.members().size());
  for (NodeId v : sched.members()) {
    // A stale structure (crashes not yet repaired) may reference dead
    // nodes; they neither act nor count as intended receivers.
    if (!g.isAlive(v)) continue;
    wave.members.push_back(v);
    const int pathIndex = path.indexOf[v];
    swarm->addMember(v, sched.depth(v),
                     sched.isBackbone(v) ? sched.uSlot(v) : kNoSlot, pathIndex,
                     path.nextAfter(pathIndex), v == source);
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
