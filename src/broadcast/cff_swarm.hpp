// Structure-of-arrays implementation of Algorithm 1 (CFF flooding).
//
// Exactly the CffNodeProtocol state machine, but ONE object drives every
// member node with per-node state held in flat arrays (a handful of
// bytes per node) instead of one ~100-byte heap object per node. The
// round-for-round behaviour — actions, wake hints, done transitions — is
// identical by construction: both implementations are ports of the same
// state machine, and the differential tests pin them to each other.
#pragma once

#include <cstdint>
#include <vector>

#include "broadcast/run_result.hpp"
#include "broadcast/tdm.hpp"
#include "radio/protocol.hpp"

namespace dsn {

/// Run-wide schedule constants of one Algorithm-1 broadcast.
struct CffSwarmConfig {
  /// Δ — the root's known largest u-slot; defines the window length.
  TimeSlot window = 0;
  Channel channels = 1;
  /// Absolute round the depth-0 window opens (= depth of the source).
  Round floodStart = 0;
  std::uint64_t payload = 0;
};

/// The whole network's Algorithm-1 state, keyed by node id.
class CffSwarm : public SwarmProtocol {
 public:
  CffSwarm(const CffSwarmConfig& cfg, std::size_t nodeCount);

  /// Registers node `v` with its static schedule knowledge (mirrors
  /// CffNodeConfig): depth, u-slot (kNoSlot = silent), position on the
  /// source->root relay path (-1 = off-path) and the next hop on it.
  void addMember(NodeId v, Depth depth, TimeSlot slot, int pathIndex,
                 NodeId pathNext, bool isSource);

  Action onRound(NodeId v, Round r) override;
  void onReceive(NodeId v, const Message& m, Round r,
                 Channel channel) override;
  bool isDone(NodeId v) const override;
  Round nextWake(NodeId v, Round now) const override;

  // Delivery accounting (the swarm-side BroadcastEndpoint equivalent).
  bool hasPayload(NodeId v) const { return (flags_[v] & kHasPayload) != 0; }
  Round payloadRound(NodeId v) const { return payloadRound_[v]; }

 private:
  static constexpr std::uint8_t kHasPayload = 1;
  static constexpr std::uint8_t kPathSent = 2;
  static constexpr std::uint8_t kFloodSent = 4;
  static constexpr std::uint8_t kMissed = 8;

  Round listenWindowStart(NodeId v) const;
  Round listenWindowEnd(NodeId v) const;
  Round floodTransmitRound(NodeId v) const;

  CffSwarmConfig cfg_;
  TdmMap tdm_;
  // Hot per-node state, indexed by node id.
  std::vector<std::uint8_t> flags_;
  std::vector<Depth> depth_;
  std::vector<TimeSlot> slot_;
  std::vector<std::int32_t> pathIndex_;
  std::vector<NodeId> pathNext_;
  std::vector<std::uint64_t> payload_;
  std::vector<Round> payloadRound_;
};

}  // namespace dsn
