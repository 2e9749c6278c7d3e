// The reference Algorithm-1 state machine: one object per node.
//
// CffSwarm (broadcast/cff_swarm.hpp) is what runs CFF broadcasts. This
// per-object version of the same state machine stays as its independent
// reference: the first-principles reference radio drives it directly,
// runCffPlan drives it through the real simulator, and the oracle tests
// pin CffSwarm to it event for event. It shares no code with CffSwarm
// beyond the TDM arithmetic.
#pragma once

#include <cstdint>

#include "broadcast/tdm.hpp"
#include "radio/protocol.hpp"
#include "util/types.hpp"

namespace dsn::testkit {

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

/// One node's Algorithm-1 state machine, as one object. Its calls mean
/// what SwarmProtocol's mean for the node it was built for.
class CffNodeProtocol {
 public:
  explicit CffNodeProtocol(const CffNodeConfig& cfg);

  Action onRound(Round r);
  void onReceive(const Message& m, Round r, Channel channel);
  bool isDone() const;
  Round nextWake(Round now) const;

  bool hasPayload() const { return hasPayload_; }
  Round payloadRound() const { return payloadRound_; }

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

}  // namespace dsn::testkit
