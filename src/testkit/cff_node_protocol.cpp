#include "testkit/cff_node_protocol.hpp"

#include <algorithm>

namespace dsn::testkit {

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

}  // namespace dsn::testkit
