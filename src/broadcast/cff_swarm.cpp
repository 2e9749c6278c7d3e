#include "broadcast/cff_swarm.hpp"

#include <algorithm>

namespace dsn {

CffSwarm::CffSwarm(const CffSwarmConfig& cfg, std::size_t nodeCount)
    : SlottedSwarm(nodeCount),
      cfg_(cfg),
      tdm_(cfg.window == 0 ? 1 : cfg.window, cfg.channels),
      depth_(nodeCount, 0),
      slot_(nodeCount, kNoSlot),
      pathIndex_(nodeCount, -1),
      pathNext_(nodeCount, kInvalidNode) {}

void CffSwarm::addMember(NodeId v, Depth depth, TimeSlot slot,
                         int pathIndex, NodeId pathNext, bool isSource) {
  addHolder(v, isSource, cfg_.payload);
  depth_[v] = depth;
  slot_[v] = slot;
  pathIndex_[v] = pathIndex;
  pathNext_[v] = pathNext;
  // Mirrors the CffNodeProtocol constructor: off-path (or path-tail)
  // nodes have no relay duty; unslotted nodes have no flood duty.
  if (pathIndex < 0 || pathNext == kInvalidNode) flags_[v] |= kPathSent;
  if (slot == kNoSlot) flags_[v] |= kFloodSent;
}

Round CffSwarm::listenWindowStart(NodeId v) const {
  return cfg_.floodStart +
         static_cast<Round>(depth_[v] - 1) * tdm_.windowLength();
}

Round CffSwarm::listenWindowEnd(NodeId v) const {
  if (depth_[v] == 0) return cfg_.floodStart;  // root: end of path phase
  return cfg_.floodStart +
         static_cast<Round>(depth_[v]) * tdm_.windowLength();
}

Round CffSwarm::floodTransmitRound(NodeId v) const {
  return cfg_.floodStart +
         static_cast<Round>(depth_[v]) * tdm_.windowLength() +
         tdm_.roundOffset(slot_[v]);
}

Action CffSwarm::onRound(NodeId v, Round r) {
  std::uint8_t& f = flags_[v];
  if (f & kMissed) return Action::sleep();

  if (!(f & kHasPayload)) {
    if (pathIndex_[v] > 0 && r == pathIndex_[v] - 1)
      return Action::listen();
    if (r >= listenWindowEnd(v)) {
      f |= kMissed;  // our receive window passed in silence
      return Action::sleep();
    }
    if (r >= listenWindowStart(v)) return Action::listen();
    return Action::sleep();
  }

  // Payload in hand: source->root relay duty first (rounds 0..R0-1).
  if (!(f & kPathSent)) {
    if (r == pathIndex_[v]) {
      f |= kPathSent;
      Message m;
      m.kind = MsgKind::kControl;
      m.sender = v;
      m.target = pathNext_[v];
      m.origin = v;
      m.payload = payload_[v];
      return Action::transmit(m, 0);
    }
    if (r < pathIndex_[v]) return Action::sleep();
    f |= kPathSent;  // path round passed before the payload arrived
  }

  // Flood duty: internal nodes relay once in their depth's window.
  if (!(f & kFloodSent)) {
    const Round tx = floodTransmitRound(v);
    if (r == tx) {
      f |= kFloodSent;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = v;
      m.slot = slot_[v];
      m.windowSize = cfg_.window;
      m.depth = depth_[v];
      m.payload = payload_[v];
      return Action::transmit(m, tdm_.channelOf(slot_[v]));
    }
    if (r < tx) return Action::sleep();
    f |= kFloodSent;  // transmit round passed (late payload)
  }
  return Action::sleep();
}

bool CffSwarm::isDone(NodeId v) const {
  const std::uint8_t f = flags_[v];
  constexpr std::uint8_t all = kHasPayload | kPathSent | kFloodSent;
  return (f & kMissed) != 0 || (f & all) == all;
}

Round CffSwarm::nextWake(NodeId v, Round now) const {
  const std::uint8_t f = flags_[v];
  if (f & kMissed) return kNoWake;
  if (!(f & kHasPayload)) {
    Round next = kNoWake;
    if (pathIndex_[v] > 0 && static_cast<Round>(pathIndex_[v]) - 1 > now)
      next = pathIndex_[v] - 1;
    const Round w = std::max(now + 1, listenWindowStart(v));
    if (w <= listenWindowEnd(v)) next = std::min(next, w);
    return next;
  }
  if (!(f & kPathSent)) {
    const Round tx = pathIndex_[v];
    return tx > now ? tx : now + 1;
  }
  if (!(f & kFloodSent)) {
    const Round tx = floodTransmitRound(v);
    return tx > now ? tx : now + 1;
  }
  return kNoWake;  // done: sleeps forever
}

}  // namespace dsn
