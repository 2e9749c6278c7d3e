// What the two slotted schemes (CFF, Algorithm 1; iCFF, Algorithm 2)
// share: per-node delivery state, the admitted wave, and its one-shot run.
//
// Both algorithms take a frame the same way — the first data or control
// frame a node hears delivers the payload — and report delivery the same
// way. SlottedSwarm holds that state in flat arrays and implements
// onReceive once; CffSwarm and IcffSwarm add their schedule columns and
// duty flags. A wave is admitted against a net's schedule as of now by
// admitCffWave or admitIcffWave; runCffBroadcast,
// runImprovedCffBroadcast, runMulticast and InFlightBroadcast all run
// what those return, so their admissions cannot drift apart.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "broadcast/run_result.hpp"
#include "radio/protocol.hpp"

namespace dsn {

class ClusterNet;

/// Delivery state of every member of a slotted wave, keyed by node id.
class SlottedSwarm : public SwarmProtocol {
 public:
  void onReceive(NodeId v, const Message& m, Round r,
                 Channel channel) final;

  bool hasPayload(NodeId v) const { return (flags_[v] & kHasPayload) != 0; }
  Round payloadRound(NodeId v) const { return payloadRound_[v]; }

 protected:
  /// flags_ bit every slotted swarm shares; subclasses use higher bits.
  static constexpr std::uint8_t kHasPayload = 1;

  explicit SlottedSwarm(std::size_t nodeCount);

  /// Resets node `v`'s delivery state: the source holds `payload` from
  /// round 0, everyone else waits for a frame.
  void addHolder(NodeId v, bool isSource, std::uint64_t payload);

  std::vector<std::uint8_t> flags_;
  std::vector<std::uint64_t> payload_;
  std::vector<Round> payloadRound_;
};

/// One slotted wave admitted against a net's schedule as of now.
struct SlottedWave {
  /// The static TDM schedule length in rounds.
  Round schedule = 0;
  std::unique_ptr<SlottedSwarm> swarm;
  /// Live net members; the swarm drives exactly these.
  std::vector<NodeId> members;
  /// Members that want the payload: all of them, except in a multicast.
  std::vector<NodeId> intended;
};

/// Simulator configuration of a wave with `schedule` rounds: the
/// options' channels, trace and scheduling, and a round budget of
/// options.maxRounds or, when that is 0, schedule + 4.
SimConfig slottedSimConfig(Round schedule, const ProtocolOptions& options);

/// Runs an admitted wave to completion on a fresh simulator over the
/// net's graph, with the failure plan of `options`.
BroadcastRun runSlottedWave(const ClusterNet& net, SlottedWave wave,
                            const ProtocolOptions& options);

namespace detail {

/// A wave's source->root tree path: `nodes` from the source up to the
/// root, and `indexOf[v]`, v's position on it (-1 off the path and for
/// the root, which relays nothing).
struct SourcePath {
  std::vector<NodeId> nodes;
  std::vector<int> indexOf;

  /// Rounds the relay up the path takes (= depth of the source).
  Round hops() const { return static_cast<Round>(nodes.size()) - 1; }
  /// The hop after position `index`, or kInvalidNode off the path.
  NodeId nextAfter(int index) const {
    return index >= 0 ? nodes[static_cast<std::size_t>(index) + 1]
                      : kInvalidNode;
  }
};

SourcePath sourcePath(const ClusterNet& net, NodeId source);

}  // namespace detail

}  // namespace dsn
