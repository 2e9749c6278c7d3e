// Collision-Free Flooding broadcast — Algorithm 1 (paper Section 3.3).
//
// The message floods the whole CNet(G) depth by depth. Depth i's internal
// nodes transmit inside TDM window i at their unified time-slot (u-slot,
// Time-Slot Condition 1); every node at depth i+1 listens during window i
// and receives collision-free from some uniquely-slotted neighbor. A
// non-root source first relays the payload up the tree path to the root
// (depth(s) rounds).
//
// Completion: Δ·(h+1) (+ the source path) rounds; every node is awake at
// most ~2Δ rounds (Lemma 1). With k channels both shrink by 1/k
// (wide-band receivers, DESIGN.md §4(5)).
#pragma once

#include "broadcast/run_result.hpp"
#include "broadcast/slotted_swarm.hpp"
#include "broadcast/tdm.hpp"
#include "cluster/cnet.hpp"
#include "radio/protocol.hpp"

namespace dsn {

/// Per-node static schedule knowledge for Algorithm 1 (DESIGN.md §4(8)).
struct CffNodeConfig {
  NodeId self = kInvalidNode;
  Depth depth = 0;
  /// This node's u-slot (kNoSlot for leaves / silent nodes).
  TimeSlot slot = kNoSlot;
  /// Δ — the root's known largest u-slot; defines the window length.
  TimeSlot window = 0;
  Channel channels = 1;
  /// Absolute round the depth-0 window opens (= depth of the source).
  Round floodStart = 0;
  /// Position on the source->root relay path (0 = source); -1 = not on
  /// the path.
  int pathIndex = -1;
  /// Next hop toward the root (for path relays).
  NodeId pathNext = kInvalidNode;
  bool isSource = false;
  std::uint64_t payload = 0;
};

/// The per-node state machine of Algorithm 1.
class CffNodeProtocol : public NodeProtocol, public BroadcastEndpoint {
 public:
  explicit CffNodeProtocol(const CffNodeConfig& cfg);

  Action onRound(Round r) override;
  void onReceive(const Message& m, Round r, Channel channel) override;
  bool isDone() const override;
  Round nextWake(Round now) const override;

  bool hasPayload() const override { return hasPayload_; }
  Round payloadRound() const override { return payloadRound_; }

 private:
  CffNodeConfig cfg_;
  TdmMap tdm_;
  bool hasPayload_;
  Round payloadRound_;
  bool pathSent_;
  bool floodSent_;
  bool missed_ = false;

  Round listenWindowStart() const;
  Round listenWindowEnd() const;
  Round floodTransmitRound() const;
};

/// Admits an Algorithm-1 wave of `payload` from `source` against `net`'s
/// schedule as of now: one CffSwarm over every live member.
SlottedWave admitCffWave(const ClusterNet& net, NodeId source,
                         std::uint64_t payload, Channel channels);

/// Runs an Algorithm-1 broadcast of `payload` from `source` over `net`.
BroadcastRun runCffBroadcast(const ClusterNet& net, NodeId source,
                             std::uint64_t payload,
                             const ProtocolOptions& options = {});

}  // namespace dsn
