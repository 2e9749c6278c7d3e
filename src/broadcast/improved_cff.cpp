#include "broadcast/improved_cff.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace dsn {

IcffSwarm::IcffSwarm(const IcffSwarmConfig& cfg, std::size_t nodeCount)
    : SlottedSwarm(nodeCount),
      cfg_(cfg),
      bTdm_(cfg.bWindow == 0 ? 1 : cfg.bWindow, cfg.channels),
      lTdm_(cfg.lWindow == 0 ? 1 : cfg.lWindow, cfg.channels),
      depth_(nodeCount, 0),
      bSlot_(nodeCount, kNoSlot),
      lSlot_(nodeCount, kNoSlot),
      pathIndex_(nodeCount, -1),
      pathNext_(nodeCount, kInvalidNode) {}

void IcffSwarm::addMember(NodeId v, Depth depth, bool backbone,
                          TimeSlot bSlot, TimeSlot lSlot, int pathIndex,
                          NodeId pathNext, bool isSource, bool relays,
                          bool wantsPayload) {
  addHolder(v, isSource, cfg_.payload);
  depth_[v] = depth;
  bSlot_[v] = bSlot;
  lSlot_[v] = lSlot;
  pathIndex_[v] = pathIndex;
  pathNext_[v] = pathNext;
  std::uint8_t& f = flags_[v];
  if (backbone) f |= kBackbone;
  // Off-path (or path-tail) nodes have no relay duty; pure members,
  // unslotted and pruned backbone nodes have no window duties.
  if (pathIndex < 0 || pathNext == kInvalidNode) f |= kPathSent;
  if (!backbone || bSlot == kNoSlot || !relays) f |= kBSent;
  if (!backbone || lSlot == kNoSlot || !relays) f |= kLSent;
  if (!wantsPayload && !relays && pathIndex < 0 && !isSource) f |= kIdle;
}

Round IcffSwarm::leafWindowStart() const {
  return cfg_.backboneStart +
         static_cast<Round>(cfg_.backboneHeight + 1) * bTdm_.windowLength();
}

Round IcffSwarm::bListenStart(NodeId v) const {
  if (!(flags_[v] & kBackbone)) return leafWindowStart();
  return cfg_.backboneStart +
         static_cast<Round>(depth_[v] - 1) * bTdm_.windowLength();
}

Round IcffSwarm::bListenEnd(NodeId v) const {
  if (!(flags_[v] & kBackbone))
    return leafWindowStart() + lTdm_.windowLength();  // the leaf window
  if (depth_[v] == 0) return cfg_.backboneStart;      // root: path phase
  return cfg_.backboneStart +
         static_cast<Round>(depth_[v]) * bTdm_.windowLength();
}

Round IcffSwarm::bTransmitRound(NodeId v) const {
  return cfg_.backboneStart +
         static_cast<Round>(depth_[v]) * bTdm_.windowLength() +
         bTdm_.roundOffset(bSlot_[v]);
}

Round IcffSwarm::lTransmitRound(NodeId v) const {
  return leafWindowStart() + lTdm_.roundOffset(lSlot_[v]);
}

Action IcffSwarm::onRound(NodeId v, Round r) {
  std::uint8_t& f = flags_[v];
  if (f & (kIdle | kMissed)) return Action::sleep();

  if (!(f & kHasPayload)) {
    // Nodes that only relay (multicast: backbone on the relay tree that
    // is not itself a member) still need the payload to do their job;
    // pure members that don't want it are idle and never reach here.
    // Path relays wake exactly when their predecessor transmits.
    if (pathIndex_[v] > 0 && r == pathIndex_[v] - 1)
      return Action::listen();
    if (r >= bListenEnd(v)) {
      f |= kMissed;
      return Action::sleep();
    }
    if (r >= bListenStart(v)) return Action::listen();
    return Action::sleep();
  }

  if (!(f & kPathSent)) {
    if (r == pathIndex_[v]) {
      f |= kPathSent;
      Message m;
      m.kind = MsgKind::kControl;
      m.sender = v;
      m.target = pathNext_[v];
      m.group = cfg_.group;
      m.payload = payload_[v];
      return Action::transmit(m, 0);
    }
    if (r < pathIndex_[v]) return Action::sleep();
    f |= kPathSent;  // upstream break; duty lapsed
  }

  if (!(f & kBSent)) {
    const Round tx = bTransmitRound(v);
    if (r == tx) {
      f |= kBSent;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = v;
      m.slot = bSlot_[v];
      m.windowSize = cfg_.bWindow;
      m.depth = depth_[v];
      m.height = cfg_.backboneHeight;
      m.group = cfg_.group;
      m.payload = payload_[v];
      return Action::transmit(m, bTdm_.channelOf(bSlot_[v]));
    }
    if (r < tx) return Action::sleep();
    f |= kBSent;
  }

  if (!(f & kLSent)) {
    const Round tx = lTransmitRound(v);
    if (r == tx) {
      f |= kLSent;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = v;
      m.slot = lSlot_[v];
      m.windowSize = cfg_.lWindow;
      m.depth = depth_[v];
      m.group = cfg_.group;
      m.payload = payload_[v];
      return Action::transmit(m, lTdm_.channelOf(lSlot_[v]));
    }
    if (r < tx) return Action::sleep();
    f |= kLSent;
  }
  return Action::sleep();
}

bool IcffSwarm::isDone(NodeId v) const {
  const std::uint8_t f = flags_[v];
  constexpr std::uint8_t all = kHasPayload | kPathSent | kBSent | kLSent;
  return (f & (kIdle | kMissed)) != 0 || (f & all) == all;
}

Round IcffSwarm::nextWake(NodeId v, Round now) const {
  const std::uint8_t f = flags_[v];
  if (f & (kIdle | kMissed)) return kNoWake;
  if (!(f & kHasPayload)) {
    // Path-listen round, the b-listen window, and the window-end round
    // where kMissed flips.
    Round next = kNoWake;
    if (pathIndex_[v] > 0 && static_cast<Round>(pathIndex_[v]) - 1 > now)
      next = pathIndex_[v] - 1;
    const Round w = std::max(now + 1, bListenStart(v));
    if (w <= bListenEnd(v)) next = std::min(next, w);
    return next;
  }
  if (!(f & kPathSent)) {
    const Round tx = pathIndex_[v];
    return tx > now ? tx : now + 1;
  }
  if (!(f & kBSent)) {
    const Round tx = bTransmitRound(v);
    return tx > now ? tx : now + 1;
  }
  if (!(f & kLSent)) {
    const Round tx = lTransmitRound(v);
    return tx > now ? tx : now + 1;
  }
  return kNoWake;
}

SlottedWave admitIcffWave(const ClusterNet& net, NodeId source,
                          std::optional<GroupId> group, std::uint64_t payload,
                          MulticastMode mode, Channel channels) {
  const detail::SourcePath path = detail::sourcePath(net, source);
  const Round backboneStart = path.hops();

  const Graph& g = net.graph();
  // Stale (crashed, unrepaired) backbone nodes count towards H too.
  int backboneHeight = 0;
  for (NodeId v = 0; v < g.size(); ++v) {
    if (!net.contains(v)) continue;
    const NodeKnowledge& k = net.knowledge(v);
    if (isBackboneStatus(k.status))
      backboneHeight = std::max(backboneHeight, static_cast<int>(k.depth));
  }

  const TimeSlot bWindow = net.rootMaxBSlot();
  const TimeSlot lWindow = net.rootMaxLSlot();
  const TdmMap bTdm(bWindow == 0 ? 1 : bWindow, channels);
  const TdmMap lTdm(lWindow == 0 ? 1 : lWindow, channels);

  SlottedWave wave;
  wave.schedule = backboneStart +
                  static_cast<Round>(backboneHeight + 1) * bTdm.windowLength() +
                  lTdm.windowLength();

  IcffSwarmConfig sc;
  sc.bWindow = bWindow;
  sc.lWindow = lWindow;
  sc.channels = channels;
  sc.backboneStart = backboneStart;
  sc.backboneHeight = backboneHeight;
  sc.group = group.value_or(kNoGroup);
  sc.payload = payload;
  auto swarm = std::make_unique<IcffSwarm>(sc, g.size());

  // One pass over the net's records, in node order, fills the swarm.
  wave.members.reserve(net.netSize());
  wave.intended.reserve(net.netSize());
  for (NodeId v = 0; v < g.size(); ++v) {
    // A stale structure (crashes not yet repaired) may reference dead
    // nodes; they neither act nor count as intended receivers.
    if (!net.contains(v) || !g.isAlive(v)) continue;
    const NodeKnowledge& k = net.knowledge(v);
    const bool backbone = isBackboneStatus(k.status);
    bool wantsPayload = true;
    bool relays = backbone;
    if (group.has_value()) {
      wantsPayload = net.inGroup(v, *group);
      relays = backbone && (mode == MulticastMode::kFullFlood ||
                            net.relaysGroup(v, *group));
    }
    wave.members.push_back(v);
    if (wantsPayload) wave.intended.push_back(v);
    const int pathIndex = path.indexOf[v];
    swarm->addMember(v, k.depth, backbone,
                     backbone ? k.slot(SlotFamily::kB) : kNoSlot,
                     backbone ? k.slot(SlotFamily::kL) : kNoSlot, pathIndex,
                     path.nextAfter(pathIndex), v == source, relays,
                     wantsPayload);
  }
  wave.swarm = std::move(swarm);
  return wave;
}

BroadcastRun runImprovedCffBroadcast(const ClusterNet& net, NodeId source,
                                     std::uint64_t payload,
                                     const ProtocolOptions& options) {
  return runSlottedWave(
      net,
      admitIcffWave(net, source, std::nullopt, payload,
                    MulticastMode::kFullFlood, options.channels),
      options);
}

BroadcastRun runMulticast(const ClusterNet& net, NodeId source,
                          GroupId group, std::uint64_t payload,
                          MulticastMode mode,
                          const ProtocolOptions& options) {
  return runSlottedWave(
      net,
      admitIcffWave(net, source, group, payload, mode, options.channels),
      options);
}

}  // namespace dsn
