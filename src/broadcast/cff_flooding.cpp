#include "broadcast/cff_flooding.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "broadcast/cff_swarm.hpp"
#include "cluster/soa.hpp"

namespace dsn {

CffNodeProtocol::CffNodeProtocol(const CffNodeConfig& cfg)
    : cfg_(cfg),
      tdm_(cfg.window == 0 ? 1 : cfg.window, cfg.channels),
      hasPayload_(cfg.isSource),
      payloadRound_(cfg.isSource ? 0 : -1),
      pathSent_(cfg.pathIndex < 0 || cfg.pathNext == kInvalidNode),
      floodSent_(cfg.slot == kNoSlot) {}

Round CffNodeProtocol::listenWindowStart() const {
  return cfg_.floodStart +
         static_cast<Round>(cfg_.depth - 1) * tdm_.windowLength();
}

Round CffNodeProtocol::listenWindowEnd() const {
  if (cfg_.depth == 0) return cfg_.floodStart;  // root: end of path phase
  return cfg_.floodStart +
         static_cast<Round>(cfg_.depth) * tdm_.windowLength();
}

Round CffNodeProtocol::floodTransmitRound() const {
  return cfg_.floodStart +
         static_cast<Round>(cfg_.depth) * tdm_.windowLength() +
         tdm_.roundOffset(cfg_.slot);
}

Action CffNodeProtocol::onRound(Round r) {
  if (missed_) return Action::sleep();

  if (!hasPayload_) {
    // Path relays know their position: they wake for exactly the round
    // their predecessor transmits the control frame.
    if (cfg_.pathIndex > 0 && r == cfg_.pathIndex - 1)
      return Action::listen();
    if (r >= listenWindowEnd()) {
      missed_ = true;  // our receive window passed in silence
      return Action::sleep();
    }
    if (r >= listenWindowStart()) return Action::listen();
    return Action::sleep();
  }

  // Payload in hand: source->root relay duty first (rounds 0..R0-1).
  if (!pathSent_) {
    if (r == cfg_.pathIndex) {
      pathSent_ = true;
      Message m;
      m.kind = MsgKind::kControl;
      m.sender = cfg_.self;
      m.target = cfg_.pathNext;
      m.origin = cfg_.self;
      m.payload = cfg_.payload;
      return Action::transmit(m, 0);
    }
    if (r < cfg_.pathIndex) return Action::sleep();
    // Our path round passed before we got the payload upstream; the
    // relay chain is broken — nothing more to do on the path.
    pathSent_ = true;
  }

  // Flood duty: internal nodes relay once in their depth's window.
  if (!floodSent_) {
    const Round tx = floodTransmitRound();
    if (r == tx) {
      floodSent_ = true;
      Message m;
      m.kind = MsgKind::kData;
      m.sender = cfg_.self;
      m.slot = cfg_.slot;
      m.windowSize = cfg_.window;
      m.depth = cfg_.depth;
      m.payload = cfg_.payload;
      return Action::transmit(m, tdm_.channelOf(cfg_.slot));
    }
    if (r < tx) return Action::sleep();
    floodSent_ = true;  // transmit round passed (late payload)
  }
  return Action::sleep();
}

void CffNodeProtocol::onReceive(const Message& m, Round r, Channel) {
  if (m.kind != MsgKind::kData && m.kind != MsgKind::kControl) return;
  if (!hasPayload_) {
    hasPayload_ = true;
    payloadRound_ = r;
    cfg_.payload = m.payload;
  }
}

bool CffNodeProtocol::isDone() const {
  return missed_ || (hasPayload_ && pathSent_ && floodSent_);
}

Round CffNodeProtocol::nextWake(Round now) const {
  if (missed_) return kNoWake;
  if (!hasPayload_) {
    // Wake for the dedicated path-listen round, every round of the listen
    // window, and the window-end round (where missed_ flips).
    Round next = kNoWake;
    if (cfg_.pathIndex > 0 && static_cast<Round>(cfg_.pathIndex) - 1 > now)
      next = cfg_.pathIndex - 1;
    const Round w = std::max(now + 1, listenWindowStart());
    if (w <= listenWindowEnd()) next = std::min(next, w);
    return next;
  }
  if (!pathSent_) {
    // Either transmit at pathIndex or process the lapsed-duty transition
    // (late payload) on the very next round.
    const Round tx = cfg_.pathIndex;
    return tx > now ? tx : now + 1;
  }
  if (!floodSent_) {
    const Round tx = floodTransmitRound();
    return tx > now ? tx : now + 1;
  }
  return kNoWake;  // done: sleeps forever
}

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
  // the per-object CffNodeProtocol remains as the differential oracle.
  return runSlottedWave(
      net, admitCffWave(net, source, payload, options.channels), options);
}

}  // namespace dsn
